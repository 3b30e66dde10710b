package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/drdp/drdp/internal/telemetry"
)

// Integrity scrubbing. Disk corruption that lands after a write
// succeeded (bit rot, a lying fsync) passes every code path until the
// bytes are re-read — which for a store that serves from memory may be
// never, until the restart that needs them. Scrub is the background
// re-read: it CRC-walks the task log, verdict sidecar and snapshot,
// quarantines the corrupt range, and — given a RepairSource — repairs
// the log by re-pulling verbatim frames from a replica over the same
// FramesSince stream replication uses, restoring the byte-identical-log
// invariant through bit rot.

// RepairSource supplies the verbatim frames and verdicts a scrub uses
// to repair quarantined ranges — typically the shard leader, reached
// over the PullLog RPC.
type RepairSource interface {
	// FramesSince returns verbatim log frames with sequence numbers
	// above after (*Store satisfies this directly).
	FramesSince(after uint64, maxFrames int) ([]Frame, uint64, error)
	// Verdicts returns the peer's full verdict map.
	Verdicts() (map[uint64]bool, error)
}

// ScrubReport summarizes one integrity pass.
type ScrubReport struct {
	FramesChecked int // intact log frames CRC-verified
	CorruptFrames int // frames quarantined (first corrupt frame to tail)

	// QuarantinedFrom/To is the quarantined sequence range (0/0 = none).
	QuarantinedFrom uint64
	QuarantinedTo   uint64

	RepairedFrames int  // frames restored verbatim from the RepairSource
	Repaired       bool // the quarantined range was fully restored

	SnapshotOK       bool // snapshot file verified (or is absent)
	SnapshotRepaired bool // corrupt snapshot rewritten from memory

	VerdictFrames     int  // intact sidecar records verified
	VerdictCorrupt    bool // sidecar held corrupt bytes
	VerdictsRewritten int  // verdicts rewritten after merging the source's
	VerdictsMerged    int  // missing verdicts re-derived from the source

	PoisonCleared bool // a poisoned store was restored to writable
}

// Clean reports whether the pass found nothing wrong.
func (r ScrubReport) Clean() bool {
	return r.CorruptFrames == 0 && r.SnapshotOK && !r.SnapshotRepaired && !r.VerdictCorrupt
}

// Scrub runs one integrity pass over the on-disk state. src supplies
// replica-assisted repair; with a nil src corruption is detected and
// quarantined but the log bytes are left in place (the in-memory state
// keeps serving, and recovery on reopen truncates from the first
// corrupt frame). A successful pass also clears a poisoned store: the
// log has been re-verified end to end and ends on a clean boundary, so
// writing again is safe.
//
// Memory-only stores scrub trivially clean. The detection walks hold
// the store lock, but network repair pulls do NOT: a slow or timed-out
// repair source must not stall appends and reads on a store whose
// in-memory state is perfectly healthy. The lock is reacquired to
// splice, and the splice is skipped (retried next pass) if the log
// moved while the pull was in flight.
func (s *Store) Scrub(src RepairSource) (ScrubReport, error) {
	rep := ScrubReport{SnapshotOK: true}

	// Phase 1 (locked): verify the snapshot and walk both logs,
	// recording what needs repair.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return rep, ErrClosed
	}
	if s.logF == nil {
		s.mu.Unlock()
		return rep, nil
	}

	// Snapshot first: it must decode, or every restart from now on is a
	// hard error. The full state is still in memory, so a corrupt
	// snapshot self-heals by forcing a compaction — the rewritten
	// snapshot and the emptied logs are consistent by construction, and
	// there is nothing left to walk.
	ok, err := s.snapshotIntactLocked()
	if err != nil {
		s.mu.Unlock()
		return rep, err
	}
	if !ok {
		rep.SnapshotOK = false
		telemetry.StoreScrubCorrupt.Inc()
		if err := s.snapshotLocked(); err != nil {
			s.mu.Unlock()
			return rep, fmt.Errorf("store: scrub: rewrite corrupt snapshot: %w", err)
		}
		rep.SnapshotRepaired = true
		s.mu.Unlock()
		s.logger.Warn("store: scrub rewrote corrupt snapshot", "dir", s.opts.Dir)
		return rep, nil
	}

	logPlan, err := s.detectLogCorruptionLocked(&rep)
	if err != nil {
		s.mu.Unlock()
		return rep, err
	}
	verdictsCorrupt, err := s.detectVerdictCorruptionLocked(&rep)
	if err != nil {
		s.mu.Unlock()
		return rep, err
	}
	// Evidence the peer's verdict map is needed: a corrupt sidecar to
	// merge before rewriting, a recovery-truncated sidecar to reconcile,
	// or a log repair this pass (the replica still remembers what a
	// truncation silently dropped). Unconditional reconciling would put
	// a network pull on every scrub tick of every healthy node.
	needPeerVerdicts := verdictsCorrupt || s.verdictsTruncated || logPlan != nil
	if src == nil || (logPlan == nil && !needPeerVerdicts) {
		defer s.mu.Unlock()
		if verdictsCorrupt {
			if err := s.rewriteVerdictsLocked(&rep, nil); err != nil {
				return rep, err
			}
		}
		s.finishScrubLocked(&rep)
		return rep, nil
	}
	s.mu.Unlock()

	// Phase 2 (unlocked): pull repair state from the peer. The store
	// keeps serving while these round-trips are in flight.
	var frames []Frame
	if logPlan != nil {
		frames, err = pullRange(src, logPlan.lastGood, logPlan.upTo, s.opts.MaxRecordBytes)
		if err != nil {
			return rep, fmt.Errorf("store: scrub: pull repair frames after %d: %w", logPlan.lastGood, err)
		}
	}
	var peer map[uint64]bool
	if needPeerVerdicts {
		peer, err = src.Verdicts()
		if err != nil {
			return rep, fmt.Errorf("store: scrub: pull repair verdicts: %w", err)
		}
	}

	// Phase 3 (locked): splice the pulled frames — but only if the log
	// is still exactly as the walk left it. An append or compaction that
	// landed mid-pull makes the plan stale; splicing against it would
	// drop the new frames, so the pass bails and the next one retries.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return rep, ErrClosed
	}
	if logPlan != nil {
		switch {
		case s.logSize != logPlan.logSize || s.version != logPlan.upTo:
			s.logger.Warn("store: scrub: log changed during repair pull; retrying next pass",
				"dir", s.opts.Dir, "walked-bytes", logPlan.logSize, "log-bytes", s.logSize)
		case !framesCover(frames, s.seqsAboveLocked(logPlan.lastGood)):
			// The source could not supply the whole quarantined range (its
			// log trails ours, or compaction moved past lastGood). Splicing
			// the partial pull would truncate acknowledged frames off the
			// disk image and leave the on-disk log ending before the
			// in-memory state — a restart from that image would silently
			// lose the missing tail. Leave the quarantined bytes in place
			// for the next pass; memory keeps serving the full state.
			s.logger.Error("store: scrub: repair source lacks quarantined frames; tail at risk until a peer can supply them",
				"dir", s.opts.Dir, "pulled", len(frames),
				"needed", len(s.seqsAboveLocked(logPlan.lastGood)),
				"from", rep.QuarantinedFrom, "to", rep.QuarantinedTo)
		default:
			if err := s.spliceTailLocked(logPlan.offset, frames); err != nil {
				return rep, err
			}
			rep.RepairedFrames = len(frames)
			rep.Repaired = true
			telemetry.StoreScrubRepaired.Add(float64(len(frames)))
			s.logger.Info("store: scrub repaired log from replica",
				"dir", s.opts.Dir, "frames", len(frames),
				"from", rep.QuarantinedFrom, "to", rep.QuarantinedTo)
		}
	}
	if verdictsCorrupt {
		if err := s.rewriteVerdictsLocked(&rep, peer); err != nil {
			return rep, err
		}
	} else if peer != nil && (s.verdictsTruncated || rep.Repaired) {
		if err := s.reconcileVerdictsLocked(&rep, peer); err != nil {
			return rep, err
		}
	}
	s.finishScrubLocked(&rep)
	return rep, nil
}

// framesCover reports whether the pulled frames carry exactly the
// sequence numbers a full repair needs (pullRange already verified
// CRCs and strict ascent, so an element-wise compare suffices).
func framesCover(frames []Frame, want []uint64) bool {
	if len(frames) != len(want) {
		return false
	}
	for i, fr := range frames {
		if fr.Seq != want[i] {
			return false
		}
	}
	return true
}

// finishScrubLocked publishes the pass's frame count and clears poison
// if the walk proved the on-disk state clean. Caller holds s.mu.
func (s *Store) finishScrubLocked(rep *ScrubReport) {
	telemetry.StoreScrubFrames.Add(float64(rep.FramesChecked + rep.VerdictFrames))
	if s.poisoned == nil || (rep.CorruptFrames != 0 && !rep.Repaired) || rep.VerdictCorrupt {
		return
	}
	// The walk re-verified every byte up to the logical end, and the
	// poisoning already chopped the torn tail beyond it. But a re-read
	// goes through the page cache and proves nothing about durability:
	// after a failed fsync the kernel may have dropped dirty pages whose
	// writes reported success. So clearing also requires a fresh
	// successful fsync over the verified bytes — if the disk still
	// refuses to sync, the poison stays and reopen is the way out.
	// Residual caveat: kernels that clear the error state on the first
	// failed fsync can let a later fsync succeed without the dropped
	// pages ever reaching disk; only a replica-assisted repair
	// (rep.Repaired) rewrites the bytes themselves.
	if !s.opts.NoSync {
		if s.logF != nil {
			if err := s.logF.Sync(); err != nil {
				s.logger.Warn("store: scrub: log still failing fsync; poison kept", "err", err)
				return
			}
		}
		if s.verdictF != nil {
			if err := s.verdictF.Sync(); err != nil {
				s.logger.Warn("store: scrub: verdict log still failing fsync; poison kept", "err", err)
				return
			}
		}
	}
	s.poisoned = nil
	rep.PoisonCleared = true
	s.logger.Info("store: scrub cleared poisoned state", "dir", s.opts.Dir)
}

// snapshotIntactLocked re-reads the snapshot file (absent = intact): a
// v2 snapshot is proven by its CRC and header without decoding a task,
// a v1 one is decoded whole. Failing to open it for reasons
// other than not-exist propagates; any read, decode or consistency
// failure reports corrupt. Caller holds s.mu.
func (s *Store) snapshotIntactLocked() (bool, error) {
	f, err := s.fs.OpenFile(filepath.Join(s.opts.Dir, snapshotName), os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return true, nil
		}
		return false, fmt.Errorf("store: scrub: open snapshot: %w", err)
	}
	defer f.Close()
	_, err = readSnapshot(f, nil)
	return err == nil, nil
}

// logRepairPlan captures what a detection walk found while the lock
// was held, so the repair pull can happen without it.
type logRepairPlan struct {
	offset   int64  // byte offset of the first corrupt frame
	lastGood uint64 // last sequence number proven intact
	upTo     uint64 // log version at detection time
	logSize  int64  // log size at detection time (staleness check)
}

// detectLogCorruptionLocked CRC-walks the task log. A nil plan means
// every frame is intact; otherwise the returned plan bounds the
// quarantined range a later splice repairs. The repair itself — chop
// the quarantined bytes, re-pull the exact frames from the peer — uses
// verbatim log bytes, the same ones replication ships, so the repaired
// log is byte-identical to one that never rotted. The walk cannot
// resync past a corrupt length prefix, so everything after the first
// bad frame is suspect even if later frames happen to be intact;
// repair re-pulls the whole range verbatim, which restores those too.
// Caller holds s.mu.
func (s *Store) detectLogCorruptionLocked(rep *ScrubReport) (*logRepairPlan, error) {
	if _, err := s.logF.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("store: scrub: rewind log: %w", err)
	}
	// Restore the append position no matter how the walk ends.
	defer func() { s.logF.Seek(s.logSize, io.SeekStart) }()

	offset := int64(0) // end of the last intact frame
	lastGood := s.snapVersion
	sawFrame := false
	reader := io.LimitReader(s.logF, s.logSize)
	for offset < s.logSize {
		rec, n, err := readRecord(reader, s.opts.MaxRecordBytes)
		if err != nil {
			break // corrupt or torn at offset
		}
		offset += n
		if rec.Seq > lastGood || !sawFrame {
			lastGood = rec.Seq
		}
		sawFrame = true
		rep.FramesChecked++
	}
	if offset >= s.logSize {
		return nil, nil // every frame intact
	}

	// Quarantine (lastGood, version].
	quarantined := len(s.seqsAboveLocked(lastGood))
	if quarantined == 0 {
		quarantined = 1 // trailing garbage past the last real frame
	}
	rep.CorruptFrames = quarantined
	rep.QuarantinedFrom = lastGood + 1
	rep.QuarantinedTo = s.version
	telemetry.StoreScrubCorrupt.Add(float64(quarantined))
	s.logger.Warn("store: scrub found corrupt log range",
		"dir", s.opts.Dir, "from", rep.QuarantinedFrom, "to", rep.QuarantinedTo,
		"intact-bytes", offset, "log-bytes", s.logSize)
	return &logRepairPlan{
		offset:   offset,
		lastGood: lastGood,
		upTo:     s.version,
		logSize:  s.logSize,
	}, nil
}

// seqsAboveLocked returns the in-memory sequence numbers above after.
// Caller holds s.mu.
func (s *Store) seqsAboveLocked(after uint64) []uint64 {
	i := sort.Search(len(s.seqs), func(i int) bool { return s.seqs[i] > after })
	return s.seqs[i:]
}

// pullRange pulls verbatim frames in (after, upTo] from src, verifying
// each one: CRC-valid, the label matching the payload, strictly
// ascending. Frames beyond upTo are not taken — repair restores state,
// it does not advance it. The pull stops early (without error) if the
// source has nothing above the cursor; the caller treats the shortfall
// as an incomplete pull and skips the splice.
func pullRange(src RepairSource, after, upTo uint64, maxRecordBytes int64) ([]Frame, error) {
	var out []Frame
	cursor := after
	for cursor < upTo {
		frames, _, err := src.FramesSince(cursor, 0)
		if err != nil {
			return nil, err
		}
		progressed := false
		for _, fr := range frames {
			if fr.Seq > upTo {
				return out, nil
			}
			rec, n, err := readRecord(bytes.NewReader(fr.Bytes), maxRecordBytes)
			if err != nil {
				return nil, fmt.Errorf("repair frame %d: %w", fr.Seq, err)
			}
			if rec.Seq != fr.Seq {
				return nil, fmt.Errorf("repair frame labeled %d carries seq %d", fr.Seq, rec.Seq)
			}
			if n != int64(len(fr.Bytes)) {
				return nil, fmt.Errorf("repair frame %d has trailing bytes", fr.Seq)
			}
			if fr.Seq <= cursor {
				return nil, fmt.Errorf("repair frames not ascending at seq %d", fr.Seq)
			}
			out = append(out, fr)
			cursor = fr.Seq
			progressed = true
		}
		if !progressed {
			return out, nil // the source's log ends here
		}
	}
	return out, nil
}

// spliceTailLocked truncates the log at offset and appends the repaired
// frames durably, updating the logical size and frame cache. The
// in-memory state is untouched — memory was never corrupted; only the
// disk image is being brought back in line with it. Caller holds s.mu.
func (s *Store) spliceTailLocked(offset int64, frames []Frame) error {
	if err := s.logF.Truncate(offset); err != nil {
		return fmt.Errorf("store: scrub: truncate quarantined tail: %w", err)
	}
	if _, err := s.logF.Seek(offset, io.SeekStart); err != nil {
		return fmt.Errorf("store: scrub: seek repair point: %w", err)
	}
	s.logSize = offset
	var raw []byte
	for _, fr := range frames {
		raw = append(raw, fr.Bytes...)
	}
	if len(raw) > 0 {
		if _, err := s.logF.Write(raw); err != nil {
			return fmt.Errorf("store: scrub: write repair frames: %w", err)
		}
	}
	if err := s.logF.Sync(); err != nil {
		return fmt.Errorf("store: scrub: sync repaired log: %w", err)
	}
	s.logSize += int64(len(raw))
	for _, fr := range frames {
		s.cacheFrameLocked(fr.Seq, fr.Bytes)
	}
	return nil
}

// detectVerdictCorruptionLocked CRC-walks the sidecar and reports
// whether it holds corrupt bytes. Caller holds s.mu.
func (s *Store) detectVerdictCorruptionLocked(rep *ScrubReport) (bool, error) {
	if s.verdictF == nil {
		return false, nil
	}
	if _, err := s.verdictF.Seek(0, io.SeekStart); err != nil {
		return false, fmt.Errorf("store: scrub: rewind verdict log: %w", err)
	}
	defer func() { s.verdictF.Seek(s.verdictSize, io.SeekStart) }()
	offset := int64(0)
	reader := io.LimitReader(s.verdictF, s.verdictSize)
	for offset < s.verdictSize {
		var rec verdictRecord
		n, err := readPayload(reader, s.opts.MaxRecordBytes, &rec)
		if err != nil {
			break
		}
		offset += n
		rep.VerdictFrames++
	}
	if offset >= s.verdictSize {
		return false, nil
	}
	rep.VerdictCorrupt = true
	telemetry.StoreScrubCorrupt.Inc()
	return true, nil
}

// rewriteVerdictsLocked heals a corrupt sidecar by merging the peer's
// verdict map over memory (the leader is authoritative for replicated
// verdicts; nil = local-only rewrite) and rewriting the file from the
// merged state — quarantine verdicts are re-derived, never silently
// dropped. No staleness check is needed even though the peer map was
// pulled unlocked: the in-memory map is authoritative and current, so
// rewriting from it is correct under any interleaving. Caller holds
// s.mu.
func (s *Store) rewriteVerdictsLocked(rep *ScrubReport, peer map[uint64]bool) error {
	if s.verdictF == nil {
		return nil
	}
	for seq, q := range peer {
		if seq != 0 && seq <= s.version {
			s.verdicts[seq] = q
		}
	}
	// Rewrite the whole sidecar from the merged map, ordered by sequence
	// number so the result is deterministic for a given verdict set.
	recs := s.sortedVerdictsLocked()
	var raw []byte
	for _, rec := range recs {
		frame, err := encodePayload(rec)
		if err != nil {
			return err
		}
		raw = append(raw, frame...)
	}
	if err := s.verdictF.Truncate(0); err != nil {
		return fmt.Errorf("store: scrub: truncate verdict log: %w", err)
	}
	if _, err := s.verdictF.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: scrub: rewind verdict log: %w", err)
	}
	s.verdictSize = 0
	if len(raw) > 0 {
		if _, err := s.verdictF.Write(raw); err != nil {
			return fmt.Errorf("store: scrub: rewrite verdict log: %w", err)
		}
	}
	if err := s.verdictF.Sync(); err != nil {
		return fmt.Errorf("store: scrub: sync verdict log: %w", err)
	}
	s.verdictSize = int64(len(raw))
	rep.VerdictsRewritten = len(recs)
	telemetry.StoreScrubRepaired.Add(float64(len(recs)))
	if peer != nil {
		s.verdictsTruncated = false // the peer's set is folded in; nothing left to re-derive
	}
	s.logger.Warn("store: scrub rewrote corrupt verdict sidecar",
		"dir", s.opts.Dir, "verdicts", len(recs))
	return nil
}

// reconcileVerdictsLocked appends verdicts the peer knows and the
// local store lost (a recovery truncated them with the corrupt tail) or
// disagrees on. The sidecar bytes are intact, so this is a plain
// durable append, not a rewrite. Caller holds s.mu; the file position
// is at the logical end.
func (s *Store) reconcileVerdictsLocked(rep *ScrubReport, peer map[uint64]bool) error {
	if s.verdictF == nil {
		return nil
	}
	var seqs []uint64
	for seq, q := range peer {
		if seq == 0 || seq > s.version {
			continue
		}
		if cur, ok := s.verdicts[seq]; !ok || cur != q {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) == 0 {
		s.verdictsTruncated = false // the peer agrees; nothing was lost
		return nil
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	var raw []byte
	for _, seq := range seqs {
		frame, err := encodePayload(verdictRecord{Seq: seq, Quarantined: peer[seq]})
		if err != nil {
			return err
		}
		raw = append(raw, frame...)
	}
	if _, err := s.verdictF.Write(raw); err != nil {
		return fmt.Errorf("store: scrub: append reconciled verdicts: %w", err)
	}
	if err := s.verdictF.Sync(); err != nil {
		return fmt.Errorf("store: scrub: sync reconciled verdicts: %w", err)
	}
	s.verdictSize += int64(len(raw))
	for _, seq := range seqs {
		s.verdicts[seq] = peer[seq]
	}
	rep.VerdictsMerged = len(seqs)
	telemetry.StoreScrubRepaired.Add(float64(len(seqs)))
	s.verdictsTruncated = false
	s.logger.Warn("store: scrub re-derived lost verdicts from replica",
		"dir", s.opts.Dir, "verdicts", len(seqs))
	return nil
}

// Scrubber is a background scrub loop; Close stops it.
type Scrubber struct {
	stop chan struct{}
	done chan struct{}
}

// StartScrubber launches a background scrub loop over s. src is
// resolved each pass (nil func or nil result = detect-only), so a
// cluster node can hand in "whoever leads my shard right now". onReport
// observes every pass (nil = log-only).
func (s *Store) StartScrubber(every time.Duration, src func() RepairSource, onReport func(ScrubReport, error)) *Scrubber {
	if every <= 0 {
		every = time.Minute
	}
	sc := &Scrubber{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sc.done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-sc.stop:
				return
			case <-ticker.C:
			}
			var source RepairSource
			if src != nil {
				source = src()
			}
			rep, err := s.Scrub(source)
			if c, ok := source.(io.Closer); ok {
				// Per-pass sources (a dialed connection to whoever leads the
				// shard right now) are released between passes.
				c.Close()
			}
			if errors.Is(err, ErrClosed) {
				return
			}
			if err != nil {
				s.logger.Error("store: scrub pass failed", "err", err)
			}
			if onReport != nil {
				onReport(rep, err)
			}
		}
	}()
	return sc
}

// Close stops the scrub loop and waits out an in-flight pass.
func (sc *Scrubber) Close() {
	select {
	case <-sc.stop:
	default:
		close(sc.stop)
	}
	<-sc.done
}
