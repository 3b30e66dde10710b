// Package store is the cloud's durable task-posterior store: an
// append-only log of reported tasks plus periodic snapshot compaction,
// built so a cloud restart recovers the exact task set (and therefore,
// with a seeded builder, the byte-identical prior) it was serving.
//
// # On-disk layout
//
// A store directory holds at most three files:
//
//	snapshot.gob   the compacted prefix (layout below)
//	tasks.log      framed records appended since the snapshot
//	verdicts.log   framed admission verdicts appended since the snapshot
//
// The snapshot (v2) is one gob stream between a magic and a checksum:
//
//	"SNP2" gob({Version, Count, Verdicts}) gob({Seq, Task}) × Count [4-byte IEEE CRC32][SCRC]
//
// where Verdicts is a seq-sorted slice (so equal states write equal
// bytes) and the CRC covers everything before it. Compaction streams it
// straight into a temp file through a 64 KB buffer, holding one record
// at a time instead of an encoded copy of the pool; recovery decodes it
// record by record into the store and checks the CRC at the end, and
// the scrubber checks CRC and header without decoding tasks at all. A
// v1 snapshot — one gob({Version, Tasks, Seqs, Verdicts}) value, with or
// without the [CRC][SCRC] trailer — still loads, and the next
// compaction rewrites it as v2.
//
// Each log record is framed as
//
//	[4-byte big-endian payload length][4-byte IEEE CRC32 of payload][payload]
//
// where the payload is an independently gob-encoded {Seq, Task} pair.
// Records are self-delimiting and self-checking, so recovery can replay
// the log from the start and stop at the first torn or corrupt record:
// a crash mid-append loses at most the record being written, never the
// tail behind it. The truncated bytes are chopped off so the next append
// lands on a clean boundary.
//
// Sequence numbers make compaction crash-safe in either order: a record
// whose Seq is already covered by the snapshot is skipped on replay, so
// a crash between "snapshot written" and "log truncated" merely replays
// no-ops.
//
// # In memory
//
// The store holds each task packed (dpprior.StoredTask): μ and the upper
// triangle of Σ in one allocation, about half the dense form's bytes.
// Tasks are packed as they enter — appended, recovered or replicated —
// after any validation, which runs on the dense form. What the store
// writes is still the gob encoding of the dense form: a log frame is
// encoded from the task as appended, and a snapshot record or a
// re-encoded replication frame from the packed task unpacked row by row
// into one reused buffer. For an exactly symmetric Σ (a Laplace
// covariance is symmetrized) those bytes are the ones a dense store
// writes; a Σ that validation let through with a last-bit asymmetry is
// kept, and re-encoded, as its upper triangle mirrored.
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
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/telemetry"
)

const (
	snapshotName = "snapshot.gob"
	logName      = "tasks.log"

	// DefaultSnapshotEvery is how many appended records accumulate in the
	// log before it is compacted into the snapshot.
	DefaultSnapshotEvery = 64

	// DefaultMaxRecordBytes bounds one log record on the read path; a
	// corrupt length prefix cannot make recovery allocate unbounded
	// memory.
	DefaultMaxRecordBytes = 64 << 20
)

// Options configures a Store.
type Options struct {
	// Dir is the store directory, created if missing. Empty means
	// memory-only: no persistence, but the same API and versioning.
	Dir string
	// SnapshotEvery compacts the log into the snapshot after this many
	// appended records (0 = DefaultSnapshotEvery; negative = never).
	SnapshotEvery int
	// NoSync skips fsync after appends and snapshots. Cuts append latency
	// for tests and benchmarks at the cost of durability on power loss.
	NoSync bool
	// MaxRecordBytes bounds one record during recovery
	// (0 = DefaultMaxRecordBytes).
	MaxRecordBytes int64
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
	// compactErr is the last snapshot-compaction failure (nil after a
	// success); surfaced through CompactionError so operators see failed
	// compactions instead of a silently growing log.
	compactErr error

	// frameCache holds recently encoded log frames by sequence number,
	// evicted FIFO by frameSeqs. Entries are immutable once cached (the
	// same bytes the log holds), so FramesSince can hand them out
	// without copying. It stays nil until the store replicates: the
	// first FramesSince creates it, and only then does Append cache the
	// frame it wrote; ApplyFrames caches what it applies, since a
	// promoted follower serves those bytes. A store no follower pulls
	// from caches nothing.
	frameCache map[uint64][]byte
	frameSeqs  []uint64

	// appendTask is Append's dense buffer: each appended task is packed,
	// then unpacked here to encode its log frame.
	appendTask dpprior.TaskPosterior
}

// logRecord is one framed log entry. Seq is the store version the
// append produced, letting replay skip records the snapshot already
// covers.
type logRecord struct {
	Seq  uint64
	Task dpprior.TaskPosterior
}

// reset zeroes rec for the next decode into it but keeps its mean and
// covariance storage. gob decodes into existing slices and leaves fields
// the stream omits (zero values) as they were, so every field is cleared
// first; a task decoded this way is only valid until the next decode.
func (rec *logRecord) reset() {
	mu, sigma := rec.Task.Mu[:0], rec.Task.Sigma
	if sigma != nil {
		*sigma = mat.Dense{Data: sigma.Data[:0]}
	}
	*rec = logRecord{Task: dpprior.TaskPosterior{Mu: mu, Sigma: sigma}}
}

// snapshotHeader opens a v2 snapshot stream; Count logRecord values
// follow it on the same gob encoder, in ascending Seq order. Verdicts
// are seq-sorted.
type snapshotHeader struct {
	Version  uint64
	Count    uint64
	Verdicts []verdictRecord
}

// snapshotV1 is the legacy snapshot: the whole pool as one gob value.
// It is read, never written. Seqs and Verdicts are absent from
// pre-admission snapshots; gob decodes them as nil and recovery derives
// Seqs as the contiguous prefix (which is exactly what it was before
// tasks could be dropped).
type snapshotV1 struct {
	Version  uint64
	Tasks    []dpprior.TaskPosterior
	Seqs     []uint64
	Verdicts map[uint64]bool
}

// Open opens (or creates) a store, recovering the task set from the
// snapshot and log. A torn or corrupt log tail is truncated and
// reported via Recovery(); a corrupt snapshot is a hard error (delete
// it to start cold).
func Open(opts Options) (*Store, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if opts.MaxRecordBytes <= 0 {
		opts.MaxRecordBytes = DefaultMaxRecordBytes
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
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.replayLog(); err != nil {
		return nil, err
	}
	if err := s.loadVerdicts(); err != nil {
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

var (
	// snapshotMagic ends every checksummed snapshot, after the 4-byte
	// IEEE CRC32 of everything before it. v1 snapshots without it still
	// load; they just cannot be integrity-checked.
	snapshotMagic = []byte("SCRC")
	// snapshotV2Magic opens a v2 snapshot. No v1 file can start with it:
	// a gob stream opens with a type definition, whose negative type id
	// cannot encode as 'N'.
	snapshotV2Magic = []byte("SNP2")
)

const (
	// snapshotBufBytes sizes the buffer between the gob stream and the
	// snapshot file, in both directions.
	snapshotBufBytes = 64 << 10
	// minSnapshotRecordBytes is the smallest gob value message (length,
	// type id, end of struct): file size / it bounds how many records a
	// snapshot can hold, whatever its header claims.
	minSnapshotRecordBytes = 3
)

// writeSnapshot streams the v2 layout to w. One encoder carries the
// header and every record, so the gob type descriptors go out once, and
// a fixed buffer sits between it and w: memory is one encoded record
// plus the buffer however large the pool is. tasks and seqs are
// parallel; verdicts must be seq-sorted.
func writeSnapshot(w io.Writer, version uint64, tasks []dpprior.StoredTask, seqs []uint64, verdicts []verdictRecord) error {
	bw := bufio.NewWriterSize(w, snapshotBufBytes)
	crc := crc32.NewIEEE()
	body := io.MultiWriter(bw, crc)
	if _, err := body.Write(snapshotV2Magic); err != nil {
		return err
	}
	enc := gob.NewEncoder(body)
	if err := enc.Encode(snapshotHeader{Version: version, Count: uint64(len(tasks)), Verdicts: verdicts}); err != nil {
		return err
	}
	rec := new(logRecord) // one record and task buffer, reused: boxing a value per Encode would allocate
	for i, t := range tasks {
		rec.Seq = seqs[i]
		t.UnpackInto(&rec.Task)
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	var trailer [8]byte
	binary.BigEndian.PutUint32(trailer[:4], crc.Sum32())
	copy(trailer[4:], snapshotMagic)
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// readSnapshot streams one snapshot file of either layout. With into
// non-nil every stored task is recovered into it as it is decoded;
// with into nil a v2 snapshot's records are not decoded at all — its
// checksum vouches for them — which is how the scrubber checks the file
// without building a second copy of the pool. The CRC trailer
// (mandatory for v2, optional for v1) is checked once the last byte has
// been read, before Open returns the store. Any failure means corrupt.
func readSnapshot(f File, into *Store) (snapshotHeader, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return snapshotHeader{}, err
	}
	payload, trailered, want := size, false, uint32(0)
	if size >= 8 {
		var trailer [8]byte
		if _, err := f.Seek(size-8, io.SeekStart); err != nil {
			return snapshotHeader{}, err
		}
		if _, err := io.ReadFull(f, trailer[:]); err != nil {
			return snapshotHeader{}, err
		}
		if bytes.Equal(trailer[4:], snapshotMagic) {
			payload, trailered, want = size-8, true, binary.BigEndian.Uint32(trailer[:4])
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return snapshotHeader{}, err
	}
	crc := crc32.NewIEEE()
	br := bufio.NewReaderSize(io.TeeReader(io.LimitReader(f, payload), crc), snapshotBufBytes)
	var hdr snapshotHeader
	if magic, _ := br.Peek(len(snapshotV2Magic)); bytes.Equal(magic, snapshotV2Magic) {
		if !trailered {
			return hdr, errors.New("v2 snapshot without checksum trailer")
		}
		br.Discard(len(magic)) // cannot fail: Peek buffered these bytes
		hdr, err = readSnapshotV2(gob.NewDecoder(br), payload, into)
	} else {
		hdr, err = readSnapshotV1(gob.NewDecoder(br), into)
	}
	if err != nil {
		return hdr, err
	}
	// Whatever the decoder left unread still belongs to the checksum.
	if _, err := io.Copy(io.Discard, br); err != nil {
		return hdr, err
	}
	if trailered && crc.Sum32() != want {
		return hdr, errors.New("snapshot checksum mismatch")
	}
	return hdr, nil
}

// readSnapshotV2 decodes the header and, with into non-nil, the Count
// records behind it. Count is untrusted: it only sizes the destination
// up to what payload bytes can hold.
func readSnapshotV2(dec *gob.Decoder, payload int64, into *Store) (snapshotHeader, error) {
	var hdr snapshotHeader
	if err := dec.Decode(&hdr); err != nil {
		return hdr, fmt.Errorf("header: %w", err)
	}
	if hdr.Count > hdr.Version {
		return hdr, fmt.Errorf("%d tasks above version %d", hdr.Count, hdr.Version)
	}
	var prev uint64
	for _, v := range hdr.Verdicts {
		if err := checkSeq("verdict", v.Seq, prev, hdr.Version); err != nil {
			return hdr, err
		}
		prev = v.Seq
	}
	if into == nil {
		return hdr, nil
	}
	n := min(hdr.Count, uint64(payload/minSnapshotRecordBytes))
	into.tasks = make([]dpprior.StoredTask, 0, n)
	into.seqs = make([]uint64, 0, n)
	prev = 0
	var rec logRecord
	for i := uint64(0); i < hdr.Count; i++ {
		rec.reset()
		if err := dec.Decode(&rec); err != nil {
			return hdr, fmt.Errorf("record %d of %d: %w", i+1, hdr.Count, err)
		}
		if err := checkSeq("record", rec.Seq, prev, hdr.Version); err != nil {
			return hdr, err
		}
		prev = rec.Seq
		into.recoverTask(rec.Seq, rec.Task)
	}
	return hdr, nil
}

// checkSeq enforces the order every persisted seq list keeps: strictly
// ascending, within (0, version].
func checkSeq(what string, seq, prev, version uint64) error {
	if seq <= prev || seq > version {
		return fmt.Errorf("%s seq %d out of order or above version %d", what, seq, version)
	}
	return nil
}

// readSnapshotV1 decodes a legacy one-value snapshot, recovering its
// tasks into into when non-nil.
func readSnapshotV1(dec *gob.Decoder, into *Store) (snapshotHeader, error) {
	var snap snapshotV1
	if err := dec.Decode(&snap); err != nil {
		return snapshotHeader{}, err
	}
	hdr := snapshotHeader{Version: snap.Version, Count: uint64(len(snap.Tasks))}
	if hdr.Count > snap.Version {
		return hdr, fmt.Errorf("%d tasks above version %d", len(snap.Tasks), snap.Version)
	}
	if snap.Seqs != nil && len(snap.Seqs) != len(snap.Tasks) {
		return hdr, fmt.Errorf("%d tasks but %d seqs", len(snap.Tasks), len(snap.Seqs))
	}
	var prev uint64
	for _, seq := range snap.Seqs {
		if err := checkSeq("task", seq, prev, snap.Version); err != nil {
			return hdr, err
		}
		prev = seq
	}
	// Verdicts for seqs the snapshot never issued are dropped, as the
	// sidecar replay drops them, so the v2 rewrite holds a valid header.
	for seq, q := range snap.Verdicts {
		if seq != 0 && seq <= snap.Version {
			hdr.Verdicts = append(hdr.Verdicts, verdictRecord{Seq: seq, Quarantined: q})
		}
	}
	if into == nil {
		return hdr, nil
	}
	into.tasks = make([]dpprior.StoredTask, 0, len(snap.Tasks))
	into.seqs = make([]uint64, 0, len(snap.Tasks))
	for i, t := range snap.Tasks {
		seq := uint64(i + 1) // pre-admission: the contiguous seq prefix
		if snap.Seqs != nil {
			seq = snap.Seqs[i]
		}
		into.recoverTask(seq, t)
	}
	return hdr, nil
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
	hdr, err := readSnapshot(f, s)
	if err != nil {
		return fmt.Errorf("store: snapshot %s is corrupt (delete it to start cold): %w", path, err)
	}
	for _, v := range hdr.Verdicts {
		s.verdicts[v.Seq] = v.Quarantined
	}
	s.version = hdr.Version
	s.snapVersion = hdr.Version
	s.recovery.SnapshotTasks = int(hdr.Count)
	return nil
}

// replayLog scans the framed log, appending records beyond the snapshot
// version and truncating the first torn or corrupt tail it hits.
func (s *Store) replayLog() error {
	path := filepath.Join(s.opts.Dir, logName)
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open log: %w", err)
	}
	s.logF = f

	offset := int64(0) // end of the last fully valid record
	for {
		rec, n, err := readRecord(f, s.opts.MaxRecordBytes)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			// Torn or corrupt tail: everything before offset is intact.
			end, serr := f.Seek(0, io.SeekEnd)
			if serr != nil {
				return fmt.Errorf("store: seek log: %w", serr)
			}
			s.recovery.Truncated = true
			s.recovery.TruncatedBytes = end - offset
			if terr := f.Truncate(offset); terr != nil {
				return fmt.Errorf("store: truncate log tail: %w", terr)
			}
			break
		}
		offset += n
		if rec.Seq <= s.version {
			// Already covered by the snapshot (crash between snapshot
			// write and log truncation).
			s.recovery.SkippedRecords++
			continue
		}
		s.version = rec.Seq
		s.recovery.LogRecords++
		s.sinceSnap++
		s.recoverTask(rec.Seq, rec.Task)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return fmt.Errorf("store: seek log end: %w", err)
	}
	s.logSize = offset
	return nil
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

// Poisoned returns the failure that poisoned the store (nil = healthy).
func (s *Store) Poisoned() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.poisoned
}

// CompactionError returns the most recent snapshot-compaction failure
// (nil after a success). Compaction failures do not fail the append that
// triggered them — the append is already durable — but they must not be
// invisible either.
func (s *Store) CompactionError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactErr
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
		st.UnpackInto(&s.appendTask)
		frame, err := encodeRecord(logRecord{Seq: seq, Task: s.appendTask})
		if err != nil {
			return 0, err
		}
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
		// Once a follower pulls, remembering the encoded frame makes its
		// next pull a copy-free cache hit. (Until then, and on
		// memory-only stores, FramesSince fills the cache on demand.)
		if s.frameCache != nil {
			s.cacheFrameLocked(seq, frame)
		}
	}
	s.tasks = append(s.tasks, st)
	s.seqs = append(s.seqs, seq)
	s.version = seq
	s.sinceSnap++
	telemetry.StoreAppends.Inc()
	if s.logF != nil && s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		if err := s.snapshotLocked(); err != nil {
			// The append itself is durable; compaction just didn't happen.
			// The old snapshot stays authoritative. Latch the error (it is
			// CompactionError until a compaction succeeds), count it, and
			// retry on the next append.
			s.compactErr = err
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
	// The CRC trailer lets the scrubber (and every future load) prove the
	// snapshot intact instead of hoping gob notices.
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
	s.compactErr = nil
	telemetry.StoreSnapshots.Inc()
	return nil
}

// Sync flushes the log to stable storage (useful with NoSync stores
// before an orderly shutdown).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.logF == nil {
		return nil
	}
	return s.logF.Sync()
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
