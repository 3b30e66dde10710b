// Package store is the cloud's durable task-posterior store: an
// append-only log of reported tasks plus periodic snapshot compaction,
// built so a cloud restart recovers the exact task set (and therefore,
// with a seeded builder, the byte-identical prior) it was serving.
//
// # On-disk layout
//
// A store directory holds at most three files, each a sequence of wire
// frames ([u32 LE length][u32 LE IEEE CRC32 of payload][payload]), one
// record per frame, in the record layout of package wire:
//
//	snapshot.bin   the compacted prefix: SnapshotHeader{Version, Count},
//	               then VerdictRecord × (seq-ascending), then TaskRecord × Count
//	tasks.log      TaskRecord{Seq, Task} frames appended since the snapshot
//	verdicts.log   VerdictRecord{Seq, Quarantined} frames appended since the snapshot
//
// A task record is a pure function of the stored (packed) task and its
// sequence number, and one function (wire.AppendTaskRecord) writes it
// for Append, FramesSince and compaction: the log, the snapshot and the
// replication stream carry the same bytes, and FramesSince returns
// exactly what the log file holds. Equal states write equal snapshots.
//
// Every file is read by one frame walker (walkFrames), which bounds
// each frame's length by the bytes left in its file and checks its CRC
// before decoding it. Recovery replays the log from the start and stops
// at the first torn or corrupt frame: a crash mid-append loses at most
// the record being written, never the tail behind it. The truncated
// bytes are chopped off so the next append lands on a clean boundary.
// The verdict sidecar recovers the same way. A snapshot is all or
// nothing: a bad frame, a record out of place or fewer task records
// than its header counts make it corrupt, and Open refuses it. The
// scrubber re-walks all three files with the same walker.
//
// Sequence numbers make compaction crash-safe in either order: a record
// whose Seq is already covered by the snapshot is skipped on replay, so
// a crash between "snapshot written" and "log truncated" merely replays
// no-ops.
//
// A directory in the retired gob layout (a snapshot.gob, or logs of
// big-endian frames) is refused with errLegacyLayout before any of its
// bytes is changed.
//
// # In memory
//
// The store holds each task packed (dpprior.StoredTask): μ and the upper
// triangle of Σ in one allocation, about half the dense form's bytes.
// Tasks are packed as they enter — appended, recovered or replicated —
// after any validation, which runs on the dense form. A record writes
// Σ dense, its upper triangle mirrored; for an exactly symmetric Σ (a
// Laplace covariance is symmetrized) that is the task as uploaded, and
// a Σ that validation let through with a last-bit asymmetry is kept,
// and written, as its upper triangle mirrored.
//
// # Concurrency and versioning
//
// The store is safe for concurrent use. Version() is the total number of
// tasks ever appended — the same monotonic counter the edge protocol
// uses as the prior version. ViewRecords() returns an immutable prefix
// snapshot of the packed task slice (appends never mutate published
// entries), which is what lets the cloud's rebuild worker read the task
// set without blocking appenders.
//
// # Admission integrity
//
// With Options.Validate set, recovery re-validates every task it reads:
// a CRC-valid record that fails semantic validation (a poisoned posterior
// written before validation existed, or bit rot that survived the
// checksum) is dropped — its sequence number still advances the version,
// preserving the S17 invariant — and counted in RecoveryInfo. Quarantine
// verdicts from the cloud's admission judge persist in a sidecar log
// (SetVerdicts/Verdicts) with the same framing, so a restart keeps
// every past verdict.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

const (
	snapshotName = "snapshot.bin"
	logName      = "tasks.log"

	// DefaultSnapshotEvery is how many appended records accumulate in the
	// log before it is compacted into the snapshot.
	DefaultSnapshotEvery = 64
)

// Options configures a Store.
type Options struct {
	// Dir is the store directory, created if missing. Empty means
	// memory-only: no persistence, but the same API and versioning.
	Dir string
	// SnapshotEvery compacts the log into the snapshot after this many
	// appended records (0 = DefaultSnapshotEvery; negative = never). A
	// failed compaction does not fail its append: it is logged, counted
	// in drdp_store_snapshot_failures_total and retried on the next one.
	SnapshotEvery int
	// NoSync skips fsync after appends and snapshots. Cuts append latency
	// for tests and benchmarks at the cost of durability on power loss.
	NoSync bool
	// Logger receives recovery notices; nil picks the default handler.
	Logger *slog.Logger
	// Validate, when non-nil, re-checks every task read during recovery;
	// a task it rejects is dropped (the sequence number still advances
	// the version) and counted in RecoveryInfo.InvalidRecords. Appends
	// are not gated here — the cloud validates before appending; Append
	// only refuses a task whose shapes cannot be packed.
	Validate func(dpprior.TaskPosterior) error
	// FS overrides the filesystem the store uses (nil = the real one).
	// Tests slide a FaultFS here to run the store under disk chaos.
	FS FS
}

// RecoveryInfo reports what Open found on disk.
type RecoveryInfo struct {
	SnapshotTasks  int   // tasks loaded from the snapshot
	LogRecords     int   // records replayed from the log
	SkippedRecords int   // log records already covered by the snapshot
	TruncatedBytes int64 // torn/corrupt tail bytes chopped off the log
	Truncated      bool  // recovery found and removed a bad tail
	InvalidRecords int   // CRC-valid tasks dropped by Options.Validate or unpackable shapes
}

// Store is a crash-safe, append-only task-posterior store.
type Store struct {
	opts   Options
	logger *slog.Logger
	fs     FS

	mu        sync.Mutex
	tasks     []dpprior.StoredTask
	seqs      []uint64 // seqs[i] is the store version that appended tasks[i]
	verdicts  map[uint64]bool
	version   uint64 // == total tasks appended, ever
	sinceSnap int    // records in the log since the last snapshot
	// snapVersion is the version the on-disk snapshot covers (0 = no
	// snapshot): the floor below which the log owes no frames. The
	// scrubber pulls repairs from here when the log's very first frame
	// is the corrupt one.
	snapVersion uint64
	logF        File
	verdictF    File
	closed      bool
	recovery    RecoveryInfo

	// logSize / verdictSize are the logical end offsets of the two logs:
	// the byte after the last fully acknowledged frame. A failed append
	// truncates back to them; the scrubber walks exactly [0, size).
	logSize     int64
	verdictSize int64
	// verdictsTruncated remembers that recovery chopped a corrupt tail
	// off the verdict sidecar — evidence verdicts may be lost. The next
	// scrub pass with a repair source reconciles against the replica set
	// and clears it; without the flag a clean-looking (shorter) sidecar
	// would hide the loss, and reconciling every pass would put network
	// pulls on the scrub cadence.
	verdictsTruncated bool

	// poisoned latches the first append-path write/sync failure: once a
	// frame may be torn on disk, every further write fails fast with
	// ErrPoisoned instead of appending after garbage. Reads still serve;
	// reopening the store recovers cleanly (recovery truncates the tear).
	poisoned error

	// frame is Append's encode buffer, reused under mu.
	frame []byte
}

// Open opens (or creates) a store, recovering the task set from the
// snapshot and log. A torn or corrupt log tail is truncated and
// reported via Recovery(); a corrupt snapshot is a hard error (delete
// it to start cold), and so is a directory in the retired gob layout.
func Open(opts Options) (*Store, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if opts.FS == nil {
		opts.FS = OSFS()
	}
	s := &Store{
		opts:     opts,
		logger:   telemetry.OrDefault(opts.Logger),
		fs:       opts.FS,
		verdicts: make(map[uint64]bool),
	}
	if opts.Dir == "" {
		return s, nil
	}
	if err := s.fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	if err := s.open(); err != nil {
		if s.logF != nil {
			s.logF.Close()
		}
		if s.verdictF != nil {
			s.verdictF.Close()
		}
		return nil, err
	}
	if s.recovery.Truncated {
		telemetry.StoreRecoveries.Inc()
		telemetry.StoreTruncatedBytes.Add(float64(s.recovery.TruncatedBytes))
		s.logger.Warn("store: truncated corrupt log tail",
			"dir", opts.Dir, "bytes", s.recovery.TruncatedBytes,
			"records", s.recovery.LogRecords)
	}
	if s.recovery.InvalidRecords > 0 {
		telemetry.StoreInvalidRecords.Add(float64(s.recovery.InvalidRecords))
		s.logger.Warn("store: dropped invalid tasks during recovery",
			"dir", opts.Dir, "records", s.recovery.InvalidRecords)
	}
	return s, nil
}

// open recovers the directory's three files in order.
func (s *Store) open() error {
	if f, err := s.fs.OpenFile(filepath.Join(s.opts.Dir, legacySnapshotName), os.O_RDONLY, 0); err == nil {
		f.Close()
		return fmt.Errorf("%w: %s", errLegacyLayout, s.opts.Dir)
	}
	if err := s.loadSnapshot(); err != nil {
		return err
	}
	if err := s.replayLog(); err != nil {
		return err
	}
	return s.loadVerdicts()
}

const (
	// snapshotBufBytes sizes the buffer between the encoder and the
	// snapshot file.
	snapshotBufBytes = 64 << 10
	// minTaskRecordBytes is the smallest framed task record (a
	// 0-dimensional task without a covariance): file size / it bounds how
	// many records a snapshot can hold, whatever its header claims.
	minTaskRecordBytes = frameHeaderBytes + 1 + 8 + 4 + 1 + 8
)

// writeSnapshot writes the snapshot layout to w through a fixed buffer,
// encoding one frame at a time into one reused slice: memory is one
// frame plus the buffer however large the pool is. tasks and seqs are
// parallel; verdicts must be seq-sorted.
func writeSnapshot(w io.Writer, version uint64, tasks []dpprior.StoredTask, seqs []uint64, verdicts []verdictRecord) error {
	bw := bufio.NewWriterSize(w, snapshotBufBytes)
	frame := wire.AppendSnapshotHeader(nil, version, uint64(len(tasks)))
	for _, v := range verdicts {
		frame = wire.AppendVerdictRecord(frame, v.Seq, v.Quarantined)
	}
	for i, t := range tasks {
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		frame = wire.AppendTaskRecord(frame[:0], seqs[i], t)
	}
	if _, err := bw.Write(frame); err != nil {
		return err
	}
	return bw.Flush()
}

// readSnapshot walks one snapshot file: its header, then verdict
// records, then exactly Count task records, each list in ascending seq
// within (0, Version]. With into non-nil every verdict and task is
// recovered into it as it is read; with into nil (the scrubber) the
// file is only checked. Any failure means corrupt.
func readSnapshot(f File, into *Store) (version, count uint64, err error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, err
	}
	var rec wire.Record
	var header bool
	var tasks, prev uint64
	_, err = walkFrames(f, size, func(payload []byte) error {
		if err := wire.DecodeRecord(payload, &rec); err != nil {
			return err
		}
		switch {
		case !header:
			if rec.Kind != wire.SnapshotHeader {
				return fmt.Errorf("record of kind %d where the header belongs", rec.Kind)
			}
			if rec.Count > rec.Version {
				return fmt.Errorf("%d tasks above version %d", rec.Count, rec.Version)
			}
			header, version, count = true, rec.Version, rec.Count
			if into != nil {
				n := min(count, uint64(size/minTaskRecordBytes))
				into.tasks = make([]dpprior.StoredTask, 0, n)
				into.seqs = make([]uint64, 0, n)
			}
		case rec.Kind == wire.VerdictRecord && tasks == 0:
			if err := checkSeq("verdict", rec.Seq, prev, version); err != nil {
				return err
			}
			prev = rec.Seq
			if into != nil {
				into.verdicts[rec.Seq] = rec.Quarantined
			}
		case rec.Kind == wire.TaskRecord && tasks < count:
			if tasks == 0 {
				prev = 0
			}
			if err := checkSeq("record", rec.Seq, prev, version); err != nil {
				return err
			}
			prev = rec.Seq
			tasks++
			if into != nil {
				into.recoverTask(rec.Seq, rec.Task)
			}
		default:
			return fmt.Errorf("record of kind %d out of place after %d of %d tasks", rec.Kind, tasks, count)
		}
		return nil
	})
	switch {
	case err != nil:
		return version, count, err
	case !header:
		return 0, 0, errors.New("no header")
	case tasks != count:
		return version, count, fmt.Errorf("%d of %d task records", tasks, count)
	}
	return version, count, nil
}

// checkSeq enforces the order every persisted seq list keeps: strictly
// ascending, within (0, version].
func checkSeq(what string, seq, prev, version uint64) error {
	if seq <= prev || seq > version {
		return fmt.Errorf("%s seq %d out of order or above version %d", what, seq, version)
	}
	return nil
}

// recoverTask packs one task read back from disk during Open. A task
// Options.Validate rejects, or one whose shapes cannot be packed, is
// dropped but keeps its sequence number: the version is the count of
// tasks ever appended, valid or not.
func (s *Store) recoverTask(seq uint64, t dpprior.TaskPosterior) {
	st, ok := s.admitRecord(t)
	if !ok {
		s.recovery.InvalidRecords++
		return
	}
	s.tasks = append(s.tasks, st)
	s.seqs = append(s.seqs, seq)
}

// admitRecord validates (with Options.Validate) and packs a task read
// from disk or from a replication frame; ok is false when either fails.
func (s *Store) admitRecord(t dpprior.TaskPosterior) (dpprior.StoredTask, bool) {
	if s.opts.Validate != nil && s.opts.Validate(t) != nil {
		return dpprior.StoredTask{}, false
	}
	st, err := dpprior.PackTask(t)
	return st, err == nil
}

func (s *Store) loadSnapshot() error {
	path := filepath.Join(s.opts.Dir, snapshotName)
	f, err := s.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: open snapshot: %w", err)
	}
	defer f.Close()
	version, count, err := readSnapshot(f, s)
	if err != nil {
		return fmt.Errorf("store: snapshot %s is corrupt (delete it to start cold): %w", path, err)
	}
	s.version = version
	s.snapVersion = version
	s.recovery.SnapshotTasks = int(count)
	return nil
}

// replayLog walks the framed log, appending records beyond the snapshot
// version and truncating the first torn or corrupt tail it hits.
func (s *Store) replayLog() error {
	path := filepath.Join(s.opts.Dir, logName)
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open log: %w", err)
	}
	s.logF = f
	var rec wire.Record
	offset, _, err := s.recoverFrames(f, "log", func(payload []byte) error {
		if err := decodeRecord(payload, wire.TaskRecord, &rec); err != nil {
			return err
		}
		if rec.Seq <= s.version {
			// Already covered by the snapshot (crash between snapshot
			// write and log truncation).
			s.recovery.SkippedRecords++
			return nil
		}
		s.version = rec.Seq
		s.recovery.LogRecords++
		s.sinceSnap++
		s.recoverTask(rec.Seq, rec.Task)
		return nil
	})
	s.logSize = offset
	return err
}

// recoverFrames walks one log file through visit and truncates it after
// the last intact frame, returning that offset, with the file
// positioned there, and whether it truncated. A file whose very first
// frame is in the retired layout is left untouched and refused with
// errLegacyLayout.
func (s *Store) recoverFrames(f File, what string, visit func(payload []byte) error) (int64, bool, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, false, fmt.Errorf("store: seek %s: %w", what, err)
	}
	offset, werr := walkFrames(f, size, visit)
	if werr != nil {
		if offset == 0 && legacyFrame(f, size) {
			return 0, false, fmt.Errorf("%w: %s", errLegacyLayout, f.Name())
		}
		// Torn or corrupt tail: everything before offset is intact.
		s.recovery.Truncated = true
		s.recovery.TruncatedBytes += size - offset
		if err := f.Truncate(offset); err != nil {
			return 0, true, fmt.Errorf("store: truncate %s tail: %w", what, err)
		}
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return 0, werr != nil, fmt.Errorf("store: seek %s end: %w", what, err)
	}
	return offset, werr != nil, nil
}

// Recovery reports what Open found on disk (zero value for a fresh or
// memory-only store).
func (s *Store) Recovery() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Version returns the store version: the total number of tasks ever
// appended. It is the prior version the edge protocol advertises.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Len returns the number of stored tasks.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tasks)
}

// View returns the current task set, unpacked into fresh dense copies,
// and the version. It allocates the dense form of every task; the
// serving path reads the packed tasks through ViewRecords instead.
func (s *Store) View() ([]dpprior.TaskPosterior, uint64) {
	tasks, _, version := s.ViewRecords()
	out := make([]dpprior.TaskPosterior, len(tasks))
	for i, t := range tasks {
		out[i] = t.Task()
	}
	return out, version
}

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrPoisoned reports a write on a store whose log hit an append-path
// write or fsync failure. The store refuses further writes (reads still
// serve from memory) because the log may end in a torn frame; reopening
// the store recovers cleanly — recovery truncates the tear.
var ErrPoisoned = errors.New("store: poisoned by earlier append failure")

// poisonLocked latches the first append-path failure and tries to chop
// the possibly-torn frame back off the log so even a crash before the
// reopen leaves a clean tail. Caller holds s.mu.
func (s *Store) poisonLocked(cause error) {
	if s.poisoned != nil {
		return
	}
	s.poisoned = cause
	telemetry.StorePoisoned.Inc()
	if s.logF != nil {
		if err := s.logF.Truncate(s.logSize); err == nil {
			s.logF.Seek(s.logSize, io.SeekStart)
		}
	}
	if s.verdictF != nil {
		if err := s.verdictF.Truncate(s.verdictSize); err == nil {
			s.verdictF.Seek(s.verdictSize, io.SeekStart)
		}
	}
	s.logger.Error("store: write failure poisoned the store; reopen to recover", "err", cause)
}

// Append durably appends one task and returns the new store version.
// The task needs a d×d covariance for its d-dimensional mean (the form
// the store packs). The log frame is written from the packed task, so
// the log, the snapshots and the replication frames all carry Σ's upper
// triangle mirrored into its lower one: t's own bytes when Σ is
// symmetric, its canonical form when Σ is asymmetric in its last bits
// (as Validate allows), the form StoredTask.Fingerprint hashes. No
// half-frame is ever acknowledged: a write or fsync failure poisons
// the store (ErrPoisoned on every later write) rather than letting the
// running process append after a torn frame.
func (s *Store) Append(t dpprior.TaskPosterior) (uint64, error) {
	st, err := dpprior.PackTask(t)
	if err != nil {
		return 0, fmt.Errorf("store: append: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.poisoned != nil {
		return 0, fmt.Errorf("%w: %w", ErrPoisoned, s.poisoned)
	}
	seq := s.version + 1
	if s.logF != nil {
		s.frame = wire.AppendTaskRecord(s.frame[:0], seq, st)
		frame := s.frame
		if _, err := s.logF.Write(frame); err != nil {
			s.poisonLocked(err)
			return 0, fmt.Errorf("store: append: %w", err)
		}
		if !s.opts.NoSync {
			if err := s.logF.Sync(); err != nil {
				s.poisonLocked(err)
				return 0, fmt.Errorf("store: sync log: %w", err)
			}
		}
		s.logSize += int64(len(frame))
		telemetry.StoreLogBytes.Add(float64(len(frame)))
	}
	s.tasks = append(s.tasks, st)
	s.seqs = append(s.seqs, seq)
	s.version = seq
	s.sinceSnap++
	telemetry.StoreAppends.Inc()
	if s.logF != nil && s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		if err := s.snapshotLocked(); err != nil {
			// The append itself is durable; compaction just didn't happen.
			// The old snapshot stays authoritative. Log and count the
			// failure (drdp_store_snapshot_failures_total), and retry on
			// the next append.
			telemetry.StoreSnapshotFailures.Inc()
			s.logger.Warn("store: snapshot compaction failed", "err", err)
		}
	}
	return seq, nil
}

// Snapshot forces compaction: the full task set is written as a new
// snapshot and the log is truncated. No-op for memory-only stores.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.poisoned != nil {
		return fmt.Errorf("%w: %w", ErrPoisoned, s.poisoned)
	}
	if s.logF == nil {
		return nil
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	// Write the snapshot beside its target and rename over it, so a crash
	// mid-write never tears the previous snapshot — and so ANY failure on
	// the temp-file path (encode, fsync, close, rename) leaves the old
	// snapshot authoritative: the error propagates, the temp file is
	// removed, nothing on disk changed. The log is truncated only after
	// the new snapshot is durable; a crash in between is handled by
	// sequence-number skipping on replay.
	tmp, err := s.fs.CreateTemp(s.opts.Dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("store: snapshot temp: %w", err)
	}
	defer s.fs.Remove(tmp.Name())
	if err := writeSnapshot(tmp, s.version, s.tasks, s.seqs, s.sortedVerdictsLocked()); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if !s.opts.NoSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: sync snapshot: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := s.fs.Rename(tmp.Name(), filepath.Join(s.opts.Dir, snapshotName)); err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	if err := s.logF.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate log: %w", err)
	}
	if _, err := s.logF.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: rewind log: %w", err)
	}
	s.logSize = 0
	if s.verdictF != nil {
		// Verdicts are folded into the snapshot; the sidecar restarts empty.
		if err := s.verdictF.Truncate(0); err != nil {
			return fmt.Errorf("store: truncate verdict log: %w", err)
		}
		if _, err := s.verdictF.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("store: rewind verdict log: %w", err)
		}
		s.verdictSize = 0
	}
	s.sinceSnap = 0
	s.snapVersion = s.version
	telemetry.StoreSnapshots.Inc()
	return nil
}

// Close syncs and closes the store. Further appends fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.verdictF != nil {
		if err := s.verdictF.Sync(); err != nil {
			s.verdictF.Close()
			s.logF.Close()
			return fmt.Errorf("store: sync verdicts on close: %w", err)
		}
		if err := s.verdictF.Close(); err != nil {
			s.logF.Close()
			return fmt.Errorf("store: close verdicts: %w", err)
		}
	}
	if s.logF == nil {
		return nil
	}
	if err := s.logF.Sync(); err != nil {
		s.logF.Close()
		return fmt.Errorf("store: sync on close: %w", err)
	}
	return s.logF.Close()
}
