package edge

import (
	"fmt"
	"time"
)

// LinkProfile models an edge uplink for the systems-cost analysis:
// one-way latency plus a serialization bandwidth. TransferTime gives the
// analytic time to move a payload over the link (deterministic, used by
// Tables 4 and 9 and the fleet simulator).
type LinkProfile struct {
	Name      string
	Latency   time.Duration // one-way propagation latency
	Bandwidth float64       // bytes per second, > 0
}

// Standard profiles, rounded from common cellular/WiFi measurements.
var (
	// LinkWiFi is a good local wireless link.
	LinkWiFi = LinkProfile{Name: "wifi", Latency: 2 * time.Millisecond, Bandwidth: 6.25e6} // 50 Mbps
	// Link4G is a healthy LTE uplink.
	Link4G = LinkProfile{Name: "4g", Latency: 40 * time.Millisecond, Bandwidth: 1.25e6} // 10 Mbps
	// Link3G is a constrained cellular uplink.
	Link3G = LinkProfile{Name: "3g", Latency: 120 * time.Millisecond, Bandwidth: 2.5e5} // 2 Mbps
)

// TransferTime returns latency + payload/bandwidth.
func (p LinkProfile) TransferTime(bytes int) time.Duration {
	if p.Bandwidth <= 0 {
		panic(fmt.Sprintf("edge: LinkProfile %q has non-positive bandwidth", p.Name))
	}
	ser := time.Duration(float64(bytes) / p.Bandwidth * float64(time.Second))
	return p.Latency + ser
}
