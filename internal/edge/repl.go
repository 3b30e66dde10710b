package edge

import (
	"errors"
	"time"

	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
	"github.com/drdp/drdp/internal/wire"
)

// Replica roles on CloudServer. A leader is the ordinary server: clients
// write to it, followers pull its log. A follower serves reads
// (GetPrior/GetPriorDelta/GetStats) from its replicated store — building
// priors locally with the same seeded builder, so its priors are
// byte-identical to the leader's at the same version — and refuses
// writes with CodeNotLeader. Promotion is just SetFollower(false): the
// store is already caught up to everything it acked, and the rebuild
// worker is already running.

// SetFollower flips the replica role (safe on a live server). Demotion
// to follower does not interrupt in-flight writes, but releases held
// replication pulls; promotion to leader takes effect on the next
// request.
func (s *CloudServer) SetFollower(follower bool) {
	s.follower.Store(follower)
	if follower {
		s.wakePulls(false)
	}
}

// IsFollower reports whether this replica currently refuses writes.
func (s *CloudServer) IsFollower() bool { return s.follower.Load() }

// EnableDedupe turns on fingerprint-based upload deduplication: a
// ReportTask whose posterior content the store already holds is
// acknowledged (with the current version) without a second append. This
// is what makes ambiguous retries after a leader crash safe — the edge
// resends, the new leader recognizes the fingerprint, and the recovered
// task set stays identical to an unfailed run's. The existing store is
// scanned so recovery and replication both seed the set.
func (s *CloudServer) EnableDedupe() {
	tasks, seqs, _ := s.st.ViewRecords()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fps == nil {
		s.fps = make(map[uint64]uint64, len(tasks))
	}
	for i := range tasks {
		s.fps[tasks[i].Fingerprint()] = seqs[i]
	}
}

// errNotLeader backs the CodeNotLeader response.
var errNotLeader = errors.New("edge: not the shard leader")

// ApplyReplicated applies a PullLog answer to a follower's store:
// frames are appended verbatim (fsynced as one batch) and the leader's
// verdict sidecar is folded in, then a rebuild is kicked so the
// follower's served prior catches up. Returns the follower's new durable
// version — the AfterSeq of its next pull, i.e. its acknowledgement.
func (s *CloudServer) ApplyReplicated(frames []wire.Frame, verdicts map[uint64]bool) (uint64, error) {
	v, err := s.st.ApplyFrames(frames)
	if err != nil {
		return 0, err
	}
	if err := s.st.ApplyVerdicts(verdicts); err != nil {
		return 0, err
	}
	if len(frames) > 0 {
		s.mu.Lock()
		if s.fps != nil {
			tasks, seqs, _ := s.st.ViewRecords()
			for i := len(tasks) - len(frames); i < len(tasks); i++ {
				if i >= 0 {
					s.fps[tasks[i].Fingerprint()] = seqs[i]
				}
			}
		}
		s.mu.Unlock()
		s.kickRebuild()
	}
	return v, nil
}

// recordAck notes a follower's durable version. Monotonic per follower:
// a late or reordered pull can never regress an acknowledgement.
func (s *CloudServer) recordAck(followerID int, seq uint64) {
	s.ackMu.Lock()
	if seq > s.acks[followerID] {
		s.acks[followerID] = seq
		close(s.ackCh)
		s.ackCh = make(chan struct{})
	}
	s.ackMu.Unlock()
}

// SetSemiSync configures semi-synchronous appends (safe on a live
// server): replicas is how many follower acknowledgements an AddTask
// waits for (0 = async), timeout bounds the wait (0 = DefaultAckTimeout).
// On expiry the append is acked anyway, counted in
// drdp_repl_ack_timeouts_total and logged — availability wins, visibly.
func (s *CloudServer) SetSemiSync(replicas int, timeout time.Duration) {
	s.syncReplicas.Store(int64(replicas))
	s.ackTimeoutNs.Store(int64(timeout))
}

// waitAcked blocks until the configured number of followers have durably
// applied version v, the ack timeout expires, or the server closes.
func (s *CloudServer) waitAcked(v uint64) {
	need := int(s.syncReplicas.Load())
	timeout := time.Duration(s.ackTimeoutNs.Load())
	if timeout <= 0 {
		timeout = DefaultAckTimeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		s.ackMu.Lock()
		n := 0
		for _, seq := range s.acks {
			if seq >= v {
				n++
			}
		}
		ch := s.ackCh
		s.ackMu.Unlock()
		if n >= need {
			return
		}
		select {
		case <-ch:
		case <-s.stopCh:
			return
		case <-timer.C:
			telemetry.ReplAckTimeouts.Inc()
			s.logger.Warn("edge: follower ack timeout; acknowledging under-replicated append",
				"version", v, "acked", n, "need", need)
			return
		}
	}
}

// LogBatch is one PullLog answer on the client side.
type LogBatch struct {
	Frames   []wire.Frame
	Verdicts map[uint64]bool
	// UpTo is the leader's store version at answer time; lag is UpTo
	// minus the follower's own version after applying Frames.
	UpTo uint64
}

// servePullLog answers one replication pull: the follower's AfterSeq is
// recorded as its acknowledgement first (so semi-sync writers waiting on
// it unblock even when no new frames exist), then frames after it are
// shipped together with the verdict sidecar. A caught-up follower's pull
// is held until the next append (holdPull), so replication is pushed:
// a new frame reaches the follower one round trip after it lands.
//
// Replication pulls (FollowerID > 0) are refused on followers — the
// chain is follower→leader only. Anonymous pulls (FollowerID <= 0) are
// served by any replica: they are how a scrubber repairs a quarantined
// log range from whichever peer is reachable, and the frames are
// verbatim leader bytes wherever they are pulled from.
func (s *CloudServer) servePullLog(req *Request, sp *trace.Span) *Response {
	if req.FollowerID > 0 {
		if s.IsFollower() {
			telemetry.ServerNotLeader.Inc()
			sp.Event("not-leader")
			return &Response{Err: errNotLeader.Error(), Code: CodeNotLeader}
		}
		s.recordAck(req.FollowerID, req.AfterSeq)
		s.holdPull(req.AfterSeq)
	}
	frames, upTo, err := s.st.FramesSince(req.AfterSeq, req.MaxFrames)
	if err != nil {
		return &Response{Err: err.Error(), Code: CodeInternal}
	}
	telemetry.ReplPulls.Inc()
	telemetry.ReplFrames.Add(float64(len(frames)))
	for _, fr := range frames {
		telemetry.ReplBytes.Add(float64(len(fr.Bytes)))
	}
	if len(frames) > 0 {
		sp.Event("frames", trace.Int("count", int64(len(frames))), trace.Int("up-to", int64(upTo)))
	}
	return &Response{Frames: frames, VerdictMap: s.st.Verdicts(), UpTo: upTo, Version: upTo}
}

// holdPull parks a replication pull from a caught-up follower (afterSeq
// is the store's version) until the next append, a demotion or Close,
// and for at most pullHold, so an idle follower re-pulls (and re-acks)
// once per pullHold.
func (s *CloudServer) holdPull(afterSeq uint64) {
	if s.st.Version() > afterSeq {
		return
	}
	s.pullMu.Lock()
	if s.pullsClosed {
		s.pullMu.Unlock()
		return
	}
	if s.pullCh == nil {
		s.pullCh = make(chan struct{})
	}
	ch := s.pullCh
	s.pullMu.Unlock()
	// Looked at again with ch in hand: an append or demotion before this
	// point shows here, and one after it closes ch.
	if s.st.Version() > afterSeq || s.IsFollower() {
		return
	}
	timer := time.NewTimer(s.pullHold)
	defer timer.Stop()
	select {
	case <-ch:
	case <-timer.C:
	}
}

// wakePulls releases every held pull; closing also stops new holds.
// With no pull held it takes one uncontended lock and allocates nothing.
func (s *CloudServer) wakePulls(closing bool) {
	s.pullMu.Lock()
	if closing {
		s.pullsClosed = true
	}
	if s.pullCh != nil {
		close(s.pullCh)
		s.pullCh = nil
	}
	s.pullMu.Unlock()
}
