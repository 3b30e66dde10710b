package store

import (
	"fmt"
	"sort"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// Replication primitives: a leader ships its append-only log to followers
// frame by frame, and a follower applies the frames verbatim to its own
// log. A log frame is a pure function of the stored task and its
// sequence number (wire.AppendTaskRecord), so FramesSince re-encodes the
// stream from in-memory state — no file-offset bookkeeping — and returns
// exactly the bytes the log holds, while
// the follower's log stays byte-identical to the leader's. The
// follower's durable version is its acknowledgement: after a crash
// (even mid-stream, with a torn tail) it re-requests from Version(),
// which recovery has already rolled back to the last intact frame.

// DefaultMaxPullFrames caps one FramesSince batch when the caller passes
// no limit, bounding a single replication response.
const DefaultMaxPullFrames = 256

// FramesSince returns the framed log records with sequence numbers above
// after (at most maxFrames; 0 means DefaultMaxPullFrames), plus the
// store's current version so the caller can measure its replication lag.
// Sequence numbers a past recovery dropped are simply absent: the
// follower's version jumps over them exactly as the leader's did. The
// frames are encoded outside the lock into one fresh buffer, which the
// caller owns.
func (s *Store) FramesSince(after uint64, maxFrames int) ([]wire.Frame, uint64, error) {
	if maxFrames <= 0 {
		maxFrames = DefaultMaxPullFrames
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, ErrClosed
	}
	tasks, seqs, upTo := s.tasks[:len(s.tasks):len(s.tasks)], s.seqs[:len(s.seqs):len(s.seqs)], s.version
	s.mu.Unlock()

	start := sort.Search(len(seqs), func(i int) bool { return seqs[i] > after })
	n := min(len(seqs)-start, maxFrames)
	if n <= 0 {
		return nil, upTo, nil
	}
	tasks, seqs = tasks[start:start+n], seqs[start:start+n]
	size := 0
	for _, t := range tasks {
		size += wire.TaskRecordLen(t.Dim())
	}
	buf := make([]byte, 0, size)
	frames := make([]wire.Frame, n)
	for i, t := range tasks {
		off := len(buf)
		buf = wire.AppendTaskRecord(buf, seqs[i], t)
		frames[i] = wire.Frame{Seq: seqs[i], Bytes: buf[off:len(buf):len(buf)]}
	}
	return frames, upTo, nil
}

// ApplyFrames appends replicated frames to the follower's log and state,
// returning the new store version. Frames at or below the current version
// are skipped (re-requests after an ambiguous crash are idempotent); the
// rest must be self-consistent (CRC-valid, Seq matching the payload) and
// in increasing order. The whole batch is written and fsynced as one unit
// before the in-memory state advances, so the returned version is durable
// — it is the acknowledgement the follower reports upstream.
func (s *Store) ApplyFrames(frames []wire.Frame) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.poisoned != nil {
		return 0, fmt.Errorf("%w: %w", ErrPoisoned, s.poisoned)
	}
	type applied struct {
		seq   uint64
		task  dpprior.StoredTask
		valid bool
	}
	var batch []applied
	var raw []byte
	var rec wire.Record
	ver := s.version
	for _, fr := range frames {
		if fr.Seq <= ver {
			continue
		}
		if err := decodeFrame(fr, &rec); err != nil {
			return 0, fmt.Errorf("store: replicated frame %d: %w", fr.Seq, err)
		}
		ver = rec.Seq
		task, valid := s.admitRecord(rec.Task)
		batch = append(batch, applied{seq: rec.Seq, task: task, valid: valid})
		raw = append(raw, fr.Bytes...)
	}
	if len(batch) == 0 {
		return s.version, nil
	}
	if s.logF != nil {
		if _, err := s.logF.Write(raw); err != nil {
			s.poisonLocked(err)
			return 0, fmt.Errorf("store: apply frames: %w", err)
		}
		if !s.opts.NoSync {
			if err := s.logF.Sync(); err != nil {
				s.poisonLocked(err)
				return 0, fmt.Errorf("store: sync applied frames: %w", err)
			}
		}
		s.logSize += int64(len(raw))
		telemetry.StoreLogBytes.Add(float64(len(raw)))
	}
	invalid := 0
	for _, a := range batch {
		if a.valid {
			s.tasks = append(s.tasks, a.task)
			s.seqs = append(s.seqs, a.seq)
		} else {
			invalid++
		}
		s.version = a.seq
		s.sinceSnap++
		telemetry.StoreAppends.Inc()
	}
	if invalid > 0 {
		telemetry.StoreInvalidRecords.Add(float64(invalid))
		s.logger.Warn("store: dropped invalid replicated tasks", "records", invalid)
	}
	if s.logF != nil && s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		if err := s.snapshotLocked(); err != nil {
			telemetry.StoreSnapshotFailures.Inc()
			s.logger.Warn("store: snapshot compaction failed", "err", err)
		}
	}
	return s.version, nil
}

// ApplyVerdicts replicates the leader's admission verdicts: entries that
// differ from (or are absent in) the local set are appended durably to
// the verdict sidecar; the rest are skipped, so re-shipping the full map
// every pull does not grow the sidecar. Verdicts for sequence numbers
// beyond the local version are deferred — the frames carrying those tasks
// have not arrived yet, and the next pull re-offers the verdicts.
func (s *Store) ApplyVerdicts(verdicts map[uint64]bool) error {
	s.mu.Lock()
	diff := make(map[uint64]bool)
	for seq, q := range verdicts {
		if seq == 0 || seq > s.version {
			continue
		}
		if cur, ok := s.verdicts[seq]; !ok || cur != q {
			diff[seq] = q
		}
	}
	s.mu.Unlock()
	return s.SetVerdicts(diff)
}
