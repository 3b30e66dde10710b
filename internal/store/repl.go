package store

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
)

// Replication primitives: a leader ships its append-only log to followers
// frame by frame, and a follower applies the frames verbatim to its own
// log. Because a logRecord holds no maps, gob re-encodes it to the exact
// bytes the leader first wrote, so FramesSince can serve the stream from
// in-memory state — no file-offset bookkeeping — while the follower's log
// stays byte-identical to the leader's. The follower's durable version is
// its acknowledgement: after a crash (even mid-stream, with a torn tail)
// it re-requests from Version(), which recovery has already rolled back
// to the last intact frame.

// DefaultMaxPullFrames caps one FramesSince batch when the caller passes
// no limit, bounding a single replication response.
const DefaultMaxPullFrames = 256

// Frame is one replicated log record: the verbatim framed bytes
// (length + CRC + gob payload) and the sequence number they carry.
type Frame struct {
	Seq   uint64
	Bytes []byte
}

// frameCacheSize is how many encoded frames a store retains for
// FramesSince. The cache lets a leader ship its recent log to followers
// without re-encoding each record per pull; it fills once a follower
// has pulled (see Store.frameCache).
const frameCacheSize = 512

// cacheFrameLocked remembers one encoded frame, evicting the oldest
// entries FIFO past the cap. The bytes must be immutable (they are
// handed to replication responses without copying). Caller holds s.mu.
func (s *Store) cacheFrameLocked(seq uint64, b []byte) {
	if s.frameCache == nil {
		s.frameCache = make(map[uint64][]byte, frameCacheSize)
	}
	if _, ok := s.frameCache[seq]; ok {
		return
	}
	s.frameCache[seq] = b
	s.frameSeqs = append(s.frameSeqs, seq)
	for len(s.frameSeqs) > frameCacheSize {
		delete(s.frameCache, s.frameSeqs[0])
		s.frameSeqs = s.frameSeqs[1:]
	}
}

// FramesSince returns the framed log records with sequence numbers above
// after (at most maxFrames; 0 means DefaultMaxPullFrames), plus the
// store's current version so the caller can measure its replication lag.
// Sequence numbers a past recovery dropped are simply absent: the
// follower's version jumps over them exactly as the leader's did.
//
// Recently appended (or previously pulled) frames come straight from the
// encoded-frame cache; only frames that fell out of it — or never
// entered it, on a memory-only store or before the first pull — pay a
// re-encode, outside the lock, and are cached for the next follower.
// The first call creates the cache, so later appends land in it.
func (s *Store) FramesSince(after uint64, maxFrames int) ([]Frame, uint64, error) {
	if maxFrames <= 0 {
		maxFrames = DefaultMaxPullFrames
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, ErrClosed
	}
	if s.frameCache == nil {
		s.frameCache = make(map[uint64][]byte, frameCacheSize)
	}
	tasks := s.tasks[:len(s.tasks):len(s.tasks)]
	seqs := s.seqs[:len(s.seqs):len(s.seqs)]
	upTo := s.version
	start := sort.Search(len(seqs), func(i int) bool { return seqs[i] > after })
	n := len(seqs) - start
	if n > maxFrames {
		n = maxFrames
	}
	if n <= 0 {
		s.mu.Unlock()
		return nil, upTo, nil
	}
	frames := make([]Frame, n)
	var misses []int
	for i := 0; i < n; i++ {
		frames[i].Seq = seqs[start+i]
		if b, ok := s.frameCache[frames[i].Seq]; ok {
			frames[i].Bytes = b
		} else {
			misses = append(misses, i)
		}
	}
	s.mu.Unlock()

	if len(misses) == 0 {
		return frames, upTo, nil
	}
	var rec logRecord
	for _, i := range misses {
		rec.Seq = frames[i].Seq
		tasks[start+i].UnpackInto(&rec.Task)
		b, err := encodeRecord(rec)
		if err != nil {
			return nil, 0, err
		}
		frames[i].Bytes = b
	}
	s.mu.Lock()
	if !s.closed {
		for _, i := range misses {
			s.cacheFrameLocked(frames[i].Seq, frames[i].Bytes)
		}
	}
	s.mu.Unlock()
	return frames, upTo, nil
}

// ApplyFrames appends replicated frames to the follower's log and state,
// returning the new store version. Frames at or below the current version
// are skipped (re-requests after an ambiguous crash are idempotent); the
// rest must be self-consistent (CRC-valid, Seq matching the payload) and
// in increasing order. The whole batch is written and fsynced as one unit
// before the in-memory state advances, so the returned version is durable
// — it is the acknowledgement the follower reports upstream.
func (s *Store) ApplyFrames(frames []Frame) (uint64, error) {
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
		bytes []byte
		valid bool
	}
	var batch []applied
	var raw []byte
	ver := s.version
	for _, fr := range frames {
		if fr.Seq <= ver {
			continue
		}
		rec, n, err := readRecord(bytes.NewReader(fr.Bytes), s.opts.MaxRecordBytes)
		if err != nil {
			return 0, fmt.Errorf("store: replicated frame %d: %w", fr.Seq, err)
		}
		if rec.Seq != fr.Seq {
			return 0, fmt.Errorf("store: replicated frame labeled %d carries seq %d", fr.Seq, rec.Seq)
		}
		if n != int64(len(fr.Bytes)) {
			return 0, fmt.Errorf("store: replicated frame %d has %d trailing bytes", fr.Seq, int64(len(fr.Bytes))-n)
		}
		ver = rec.Seq
		task, valid := s.admitRecord(rec.Task)
		batch = append(batch, applied{seq: rec.Seq, task: task, bytes: fr.Bytes, valid: valid})
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
		// Cache the applied frame verbatim: a promoted follower serves
		// its own replication stream from these same bytes.
		s.cacheFrameLocked(a.seq, a.bytes)
	}
	if invalid > 0 {
		telemetry.StoreInvalidRecords.Add(float64(invalid))
		s.logger.Warn("store: dropped invalid replicated tasks", "records", invalid)
	}
	if s.logF != nil && s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		if err := s.snapshotLocked(); err != nil {
			s.compactErr = err
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
