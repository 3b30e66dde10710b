package wire

import (
	"errors"
	"fmt"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/store"
)

// The protocol message types live here so the codec — and every tier
// that speaks it — shares one definition. Package edge re-exports them
// under their historical names.

// RequestKind enumerates protocol operations.
type RequestKind int

// Protocol operations.
const (
	// GetPrior asks the cloud for the current DP prior.
	GetPrior RequestKind = iota + 1
	// ReportTask uploads a solved task posterior for incorporation.
	ReportTask
	// GetStats asks for cloud-side counters (task count, prior version).
	GetStats
	// GetPriorDelta asks for the difference between the prior at
	// KnownVersion (which the client holds) and the current prior. The
	// server answers with a component-level delta when it still retains
	// that version and the delta beats the full prior on the wire;
	// otherwise it falls back to the full prior. NotModified when the
	// client is already current.
	GetPriorDelta
	// PullLog is the replication stream: a follower asks its leader for
	// the log frames after AfterSeq (the follower's durable version, which
	// doubles as its fsync-gated acknowledgement) plus the current verdict
	// sidecar. The leader records the ack before answering, so semi-sync
	// appends can wait on it.
	PullLog
	// GetShardMap asks the coordinator for the current shard map.
	// KnownVersion makes it conditional, like GetPrior: an unchanged map
	// costs a handshake, not a payload.
	GetShardMap
	// BatchAddTask uploads a whole round's task posteriors in one framed
	// write (Request.Tasks). The server appends them in order, kicks one
	// rebuild, and waits for the semi-sync quorum once — on the final
	// version — instead of per task. Response.BatchDone counts the tasks
	// applied, so a mid-batch validation rejection tells the client
	// exactly where the batch stopped.
	BatchAddTask
)

// String names the request kind.
func (k RequestKind) String() string {
	switch k {
	case GetPrior:
		return "get-prior"
	case ReportTask:
		return "report-task"
	case GetStats:
		return "get-stats"
	case GetPriorDelta:
		return "get-prior-delta"
	case PullLog:
		return "pull-log"
	case GetShardMap:
		return "get-shard-map"
	case BatchAddTask:
		return "batch-add-task"
	default:
		return fmt.Sprintf("RequestKind(%d)", int(k))
	}
}

// Request is the client→server message.
type Request struct {
	Kind RequestKind
	// Dim is the parameter dimensionality the edge expects (GetPrior);
	// the server rejects mismatches instead of shipping a useless prior.
	Dim int
	// KnownVersion enables conditional fetch (GetPrior) and delta sync
	// (GetPriorDelta): it names the prior version the client already
	// holds. When the cloud's prior version still equals it, the server
	// answers NotModified with no payload — the refresh costs a handshake
	// instead of the prior. For GetPriorDelta it is additionally the base
	// version the returned delta patches.
	KnownVersion uint64
	// Task carries the uploaded posterior for ReportTask.
	Task *dpprior.TaskPosterior
	// Tasks carries a round's posteriors for BatchAddTask, in upload
	// order.
	Tasks []dpprior.TaskPosterior
	// MinVersion is the read-your-writes floor for GetPrior/GetPriorDelta
	// against a replica: the highest version this edge has already
	// applied or been acked for an upload. A leader that stored that
	// version waits for the rebuild covering it; any other replica whose
	// built prior is older answers CodeLagging instead of serving a prior
	// the edge would have to roll back to. Zero disables the gate.
	MinVersion uint64
	// FollowerID identifies the pulling replica on PullLog, so the leader
	// can track per-follower acknowledgements for semi-sync appends.
	FollowerID int
	// AfterSeq, for PullLog, is the follower's durable store version: the
	// leader streams frames strictly above it. Because the follower only
	// advances its version after an fsync, AfterSeq is also its
	// acknowledgement of everything at or below.
	AfterSeq uint64
	// MaxFrames caps one PullLog batch (0 = server default).
	MaxFrames int
	// TraceID and ParentSpan propagate distributed-trace context
	// (internal/trace). Zero means untraced: the server allocates no
	// spans.
	TraceID    uint64
	ParentSpan uint64
}

// RespCode classifies server-side failures so clients can tell a
// legitimate condition (cold cloud) from a real rejection without
// string-matching across the wire.
type RespCode int

// Response codes.
const (
	// The zero value means no error.
	_ RespCode = iota
	// CodeNoTasks means the cloud has no prior yet — a normal cold start,
	// not a fault; devices should train locally and try again later.
	CodeNoTasks
	// CodeBadRequest covers validation rejections (dim mismatch,
	// malformed task). Retrying the identical request cannot succeed.
	CodeBadRequest
	// CodeInternal covers unexpected server-side failures.
	CodeInternal
	// CodeOverloaded means the server shed the request to protect itself
	// (connection limit reached or handler deadline exceeded). Unlike the
	// other rejections it is retryable: the same request is expected to
	// succeed once load drains, so ResilientClient backs off and retries
	// instead of failing.
	CodeOverloaded
	// CodeNotLeader means a write (ReportTask) or replication pull reached
	// a follower replica. Not retryable against the same node: the cluster
	// client re-resolves the shard map and redirects to the leader.
	CodeNotLeader
	// CodeLagging means this replica's built prior is older than the
	// Request.MinVersion floor the edge already holds, and the replica is
	// a follower or never stored that version. Not retryable
	// against the same node; the cluster client falls through to the
	// shard leader (or keeps its cached prior).
	CodeLagging
)

// Response is the server→client message. Err is non-empty on failure
// (error values cannot cross processes faithfully); Code classifies it.
type Response struct {
	Err   string
	Code  RespCode
	Prior *dpprior.Prior
	// Delta, for GetPriorDelta, patches the prior at Request.KnownVersion
	// up to Version; exactly one of Prior/Delta is set on a successful
	// prior response with a payload.
	Delta   *dpprior.PriorDelta
	Stats   Stats
	Version uint64 // prior version at the time of the response
	// NotModified reports that the client's KnownVersion is current and
	// no prior payload was shipped.
	NotModified bool
	// Frames is the PullLog payload: verbatim log frames after AfterSeq.
	Frames []store.Frame
	// VerdictMap, on PullLog, replicates the leader's admission verdict
	// sidecar (seq → quarantined) so a promoted follower keeps every
	// quarantine decision.
	VerdictMap map[uint64]bool
	// UpTo, on PullLog, is the leader's store version at answer time; the
	// follower's lag is UpTo minus its own version.
	UpTo uint64
	// Map is the GetShardMap payload.
	Map *ShardMap
	// BatchDone, on BatchAddTask, counts the tasks applied before the
	// batch completed or was rejected.
	BatchDone int
}

// Stats are cloud-side counters.
type Stats struct {
	Tasks        int    // task posteriors incorporated so far
	PriorVersion uint64 // bumped on every rebuild
	Components   int    // components in the current prior
	WireBytes    int    // approximate serialized prior size
	Accepted     int    // tasks admitted into the served prior
	Quarantined  int    // tasks held out of the prior by the admission judge
	Rejected     int    // uploads refused by semantic validation
}

// ShardMap is the cluster topology an edge needs to route requests: one
// replica set per shard, with the leader named explicitly. The
// coordinator serves it over GetShardMap with the same conditional-fetch
// discipline as the prior (KnownVersion → NotModified), and bumps
// Version on every change — a promotion after leader loss reaches edges
// as a version bump, so redirect handling is just "refetch the map when
// a node answers CodeNotLeader or stops answering".
type ShardMap struct {
	// Version increases on every topology change (promotion, membership).
	Version uint64
	// Shards lists the replica sets; routing is by index.
	Shards []ShardReplicas
}

// ShardReplicas is one shard's replica set.
type ShardReplicas struct {
	// Leader is the address that accepts writes (ReportTask) and serves
	// the replication stream.
	Leader string
	// Followers are the read replicas pulling the leader's log.
	Followers []string
}

// Validate checks structural sanity: at least one shard, every shard led.
func (m *ShardMap) Validate() error {
	if len(m.Shards) == 0 {
		return errors.New("edge: shard map has no shards")
	}
	for i, s := range m.Shards {
		if s.Leader == "" {
			return fmt.Errorf("edge: shard %d has no leader", i)
		}
	}
	return nil
}

// ShardOf routes a task fingerprint to a shard by rendezvous
// (highest-random-weight) hashing: each shard scores the key through a
// mix keyed by its index, and the highest score wins. Every client with
// the same map computes the same owner, no coordination; and unlike
// fp % N, changing the shard count only moves the keys that must move.
func (m *ShardMap) ShardOf(fingerprint uint64) int {
	best, bestScore := 0, uint64(0)
	for i := range m.Shards {
		score := mix64(fingerprint ^ mix64(uint64(i)+0x9e3779b97f4a7c15))
		if i == 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// Replicas returns the shard's full replica set, leader first — the
// fall-through order for version-gated reads.
func (s *ShardReplicas) Replicas() []string {
	out := make([]string, 0, 1+len(s.Followers))
	out = append(out, s.Leader)
	out = append(out, s.Followers...)
	return out
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mix for rendezvous scoring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
