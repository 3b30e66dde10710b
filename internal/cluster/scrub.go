package cluster

import (
	"math"
	"time"

	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// DefaultScrubTimeout bounds one repair pull round trip.
const DefaultScrubTimeout = time.Second

// PullRepairSource adapts a replica's PullLog endpoint into a
// store.RepairSource, so a node's scrubber can re-pull quarantined log
// ranges from whichever peer is reachable. Pulls are anonymous
// (FollowerID 0): they carry no acknowledgement and any replica —
// leader or follower — answers them, because frames are verbatim leader
// bytes wherever they are held. The session is dialed lazily on first
// use and released by Close; the scrubber closes the source after
// every pass, so a long-lived node re-resolves its peer each time.
type PullRepairSource struct {
	rc *edge.ResilientClient
}

// NewPullRepairSource builds a repair source over addr. timeout bounds
// the dial and each pull round trip (0 = DefaultScrubTimeout). Each pull
// is a single attempt: a failed pull fails the scrub pass, which reports
// it, and the next pass retries.
func NewPullRepairSource(addr string, timeout time.Duration) *PullRepairSource {
	if timeout <= 0 {
		timeout = DefaultScrubTimeout
	}
	return &PullRepairSource{rc: edge.DialResilient(addr, edge.ResilientOptions{
		DialTimeout:      timeout,
		RoundTripTimeout: timeout,
		Logger:           telemetry.Discard(),
	})}
}

// FramesSince pulls verbatim log frames after `after` from the peer.
func (p *PullRepairSource) FramesSince(after uint64, maxFrames int) ([]wire.Frame, uint64, error) {
	b, err := p.rc.PullLog(0, after, maxFrames)
	if err != nil {
		return nil, 0, err
	}
	return b.Frames, b.UpTo, nil
}

// Verdicts pulls the peer's verdict sidecar. The AfterSeq is pinned to
// the maximum so the answer ships verdicts without any frames.
func (p *PullRepairSource) Verdicts() (map[uint64]bool, error) {
	b, err := p.rc.PullLog(0, math.MaxUint64, 1)
	if err != nil {
		return nil, err
	}
	return b.Verdicts, nil
}

// Close releases the session (safe when none was dialed).
func (p *PullRepairSource) Close() error { return p.rc.Close() }
