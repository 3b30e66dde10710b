package drdp

// Deprecated: the names in this file, and the members listed below, are
// left from the dial-time wire-codec choice. Every connection now speaks
// the binary codec (DESIGN.md S22), so none of them selects or reports
// anything. The frozen benchmark harness under bench/ still compiles
// against them; new code should not use them, and they go when that
// harness next changes:
//
//   - DialMux and WirePreferBinary, below;
//   - ResilientOptions.WireCodec and RegionConfig.WireCodec, which
//     nothing reads;
//   - MuxClient.Codec, which always reports the binary codec;
//   - ShardedClient.Codecs, which always reports {"binary": connections}.

import (
	"time"

	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/wire"
)

// WirePreferBinary is the only wire codec preference.
//
// Deprecated: nothing reads a preference; see the note at the top of
// this file.
const WirePreferBinary = wire.PreferBinary

// DialMux connects a multiplexed pipelining client; the preference is
// ignored.
//
// Deprecated: use DialCloud; see the note at the top of this file.
func DialMux(addr string, timeout time.Duration, _ wire.Preference) (*MuxClient, error) {
	return edge.Dial(addr, timeout)
}
