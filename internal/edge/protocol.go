// Package edge is drdp's distributed substrate: the wire protocol and
// server/client pair that move Dirichlet-process priors from the cloud to
// edge devices and task posteriors back up, plus a link simulator that
// models the latency/bandwidth profiles of typical edge uplinks for the
// systems-cost experiments.
//
// The protocol runs a sequence of (Request, Response) exchanges over TCP
// in one codec (see internal/wire): every connection opens with a
// 12-byte hello answered by an 8-byte ack, a version check that lets
// nothing but a drdp peer through, and then carries fixed-layout binary
// messages framed as [length][CRC32][payload], with the length checked
// against MaxFrameBytes before allocation and the CRC before decoding.
// A server closes any connection that does not open with a valid hello,
// without answering. The op set is deliberately small; four RPCs carry
// the entire knowledge-transfer loop of the paper:
//
//	GetPrior:      edge  → cloud   "give me the current prior for dim d"
//	GetPriorDelta: edge  → cloud   "I hold version v; send me what changed"
//	ReportTask:    edge  → cloud   "here is my solved task's posterior"
//	BatchAddTask:  edge  → cloud   "here is my whole round, in one frame"
//
// The server persists reported tasks in an append-only store
// (internal/store) and rebuilds the prior in a background worker, so
// GetPrior answers from the last built prior without waiting behind a
// rebuild, and a restart recovers the exact task set and prior version.
//
// # Failure model
//
// Because a broken frame stream cannot be resynchronized, any I/O error
// bricks a Client: the resilient layer
// treats every transport fault as fatal to the session and recovers by
// redialing. The layers compose:
//
//   - ResilientClient retries transport faults (dial errors, broken or
//     timed-out streams) under a RetryPolicy with exponential backoff and
//     seeded jitter, redialing on every retry, and fails fast through a
//     circuit breaker once consecutive failures cross BreakerConfig.
//     Threshold. Application rejections (*ServerError, e.g. a dimension
//     mismatch) are never retried — the server answered; asking again
//     cannot help. A cold cloud (no prior yet) surfaces as ErrNoPrior.
//   - Device degrades instead of failing when a PriorCache and/or
//     FallbackLocal are configured: fresh prior → cached prior →
//     local-only training, in that order. The degradation level and the
//     underlying fetch/report errors are reported truthfully in
//     RunStatus, never swallowed.
//   - CloudServer survives misbehaving peers: per-connection panic
//     recovery, the handshake check, a per-frame size limit
//     (MaxFrameBytes), and idle read deadlines (IdleTimeout) that reclaim
//     silent connections.
//
// FaultConfig provides a deterministic fault-injection net.Conn wrapper
// (drops, resets, partial writes, corruption, delays) for driving the
// whole stack through hostile-network chaos tests; it composes with
// LinkProfile.Throttle.
package edge

import (
	"errors"
	"fmt"

	"github.com/drdp/drdp/internal/wire"
)

// The protocol message types and shard-map routing live in
// internal/wire so the codec layer and every tier share one definition;
// the aliases keep the package's historical API unchanged.
type (
	// RequestKind enumerates protocol operations.
	RequestKind = wire.RequestKind
	// Request is the client→server message.
	Request = wire.Request
	// RespCode classifies server-side failures.
	RespCode = wire.RespCode
	// Response is the server→client message.
	Response = wire.Response
	// Stats are cloud-side counters.
	Stats = wire.Stats
	// ShardMap is the cluster topology an edge needs to route requests.
	ShardMap = wire.ShardMap
	// ShardReplicas is one shard's replica set.
	ShardReplicas = wire.ShardReplicas
)

// Protocol operations.
const (
	GetPrior      = wire.GetPrior
	ReportTask    = wire.ReportTask
	GetStats      = wire.GetStats
	GetPriorDelta = wire.GetPriorDelta
	PullLog       = wire.PullLog
	GetShardMap   = wire.GetShardMap
	BatchAddTask  = wire.BatchAddTask
)

// Response codes.
const (
	CodeOK         = wire.CodeOK
	CodeNoTasks    = wire.CodeNoTasks
	CodeBadRequest = wire.CodeBadRequest
	CodeInternal   = wire.CodeInternal
	CodeOverloaded = wire.CodeOverloaded
	CodeNotLeader  = wire.CodeNotLeader
	CodeLagging    = wire.CodeLagging
)

// ErrNoPrior reports that the cloud legitimately has no prior yet (no
// tasks reported). It is a normal cold-start condition, not a transport
// fault: devices train locally and retry on a later round. Test with
// errors.Is.
var ErrNoPrior = errors.New("edge: cloud has no prior yet")

// ErrOverloaded reports that the server shed the request under load.
// ResilientClient already retries these through backoff; callers that see
// it surfaced have exhausted the retry budget. Test with errors.Is.
var ErrOverloaded = errors.New("edge: cloud overloaded")

// ServerError is an application-level rejection that crossed the wire
// intact: the transport worked, the server said no. ResilientClient does
// not retry these — resending the identical request cannot succeed.
type ServerError struct {
	Code RespCode
	Msg  string
}

func (e *ServerError) Error() string { return fmt.Sprintf("edge: server: %s", e.Msg) }

// Is lets errors.Is recognize the sentinel conditions: ErrNoPrior for a
// cold-start rejection, ErrOverloaded for load shedding.
func (e *ServerError) Is(target error) bool {
	switch target {
	case ErrNoPrior:
		return e.Code == CodeNoTasks
	case ErrOverloaded:
		return e.Code == CodeOverloaded
	default:
		return false
	}
}

// errOf converts a Response error string back into an error.
func errOf(resp *Response) error {
	if resp.Err == "" {
		return nil
	}
	return &ServerError{Code: resp.Code, Msg: resp.Err}
}
