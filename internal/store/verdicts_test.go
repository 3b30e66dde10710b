package store

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
)

// TestVerdictsPersistAcrossReopen: quarantine verdicts written through
// SetVerdicts survive a close/reopen cycle via the sidecar log.
func TestVerdictsPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 4; i++ {
		if _, err := s.Append(mkTask(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetVerdicts(map[uint64]bool{2: true, 3: false}); err != nil {
		t.Fatal(err)
	}
	// Later verdicts override earlier ones on replay.
	if err := s.SetVerdicts(map[uint64]bool{3: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v := s2.Verdicts()
	if len(v) != 2 || !v[2] || !v[3] {
		t.Errorf("recovered verdicts %v, want 2:true 3:true", v)
	}
	tasks, seqs, version := s2.ViewRecords()
	if len(tasks) != 4 || len(seqs) != 4 || version != 4 {
		t.Fatalf("recovered %d tasks, %d seqs at version %d", len(tasks), len(seqs), version)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Errorf("seq[%d] = %d", i, seq)
		}
	}
}

// TestSetVerdictsRejectsUnknownSeq: verdicts can only refer to sequence
// numbers the store has actually issued.
func TestSetVerdictsRejectsUnknownSeq(t *testing.T) {
	s, err := Open(Options{Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(41))
	if _, err := s.Append(mkTask(rng, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetVerdicts(map[uint64]bool{0: true}); err == nil {
		t.Error("seq 0 accepted")
	}
	if err := s.SetVerdicts(map[uint64]bool{2: true}); err == nil {
		t.Error("seq beyond version accepted")
	}
	if err := s.SetVerdicts(nil); err != nil {
		t.Errorf("empty verdict set: %v", err)
	}
}

// TestVerdictsFoldIntoSnapshot: snapshot compaction folds verdicts into
// the snapshot file and truncates the sidecar, and reopening still
// recovers them.
func TestVerdictsFoldIntoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SnapshotEvery: 3, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	if _, err := s.Append(mkTask(rng, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetVerdicts(map[uint64]bool{1: true}); err != nil {
		t.Fatal(err)
	}
	// These two appends cross SnapshotEvery and trigger compaction.
	for i := 0; i < 2; i++ {
		if _, err := s.Append(mkTask(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, verdictLogName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Errorf("verdict sidecar not truncated after snapshot: %d bytes", fi.Size())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v := s2.Verdicts(); len(v) != 1 || !v[1] {
		t.Errorf("verdicts after snapshot reopen: %v", v)
	}
	if s2.Len() != 3 || s2.Version() != 3 {
		t.Errorf("recovered %d tasks at version %d", s2.Len(), s2.Version())
	}
}

// TestVerdictLogTornTailTruncated: a torn write at the sidecar's tail is
// chopped off like the task log's, not a hard error.
func TestVerdictLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	if _, err := s.Append(mkTask(rng, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetVerdicts(map[uint64]bool{1: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, verdictLogName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 9, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(Options{Dir: dir, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Recovery().Truncated {
		t.Error("torn verdict tail not reported")
	}
	if v := s2.Verdicts(); len(v) != 1 || !v[1] {
		t.Errorf("verdicts after torn-tail recovery: %v", v)
	}
	// The store stays writable after the repair.
	if err := s2.SetVerdicts(map[uint64]bool{1: false}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryDropsInvalidRecords: a CRC-valid log record whose task
// fails semantic validation is dropped at recovery — it cannot resurrect
// a poisoned prior — while the version sequence it consumed is kept.
func TestRecoveryDropsInvalidRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	if _, err := s.Append(mkTask(rng, 3)); err != nil {
		t.Fatal(err)
	}
	// A poisoned task: CRC will be valid (it goes through the normal
	// append path), but the mean is non-finite.
	bad := mkTask(rng, 3)
	bad.Mu[0] = math.NaN()
	if _, err := s.Append(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(mkTask(rng, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	invalid := telemetry.StoreInvalidRecords.Value()
	s2, err := Open(Options{Dir: dir, Logger: telemetry.Discard(),
		Validate: dpprior.TaskValidator()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ri := s2.Recovery()
	if ri.InvalidRecords != 1 {
		t.Errorf("InvalidRecords = %d, want 1", ri.InvalidRecords)
	}
	if got := telemetry.StoreInvalidRecords.Value() - invalid; got < 1 {
		t.Errorf("drdp_store_invalid_records_total moved by %v, want ≥ 1", got)
	}
	tasks, seqs, version := s2.ViewRecords()
	if len(tasks) != 2 {
		t.Fatalf("recovered %d tasks, want 2", len(tasks))
	}
	// The invariant: version counts every task ever appended, even the
	// dropped one, so seq numbering (and verdict keys) stay stable.
	if version != 3 {
		t.Errorf("version = %d, want 3", version)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 3 {
		t.Errorf("seqs = %v, want [1 3]", seqs)
	}
	for i, task := range tasks {
		if math.IsNaN(task.Mu()[0]) {
			t.Errorf("task %d is the poisoned record", i)
		}
	}

	// And the snapshot written from the filtered state round-trips.
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Options{Dir: dir, Logger: telemetry.Discard(),
		Validate: dpprior.TaskValidator()})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 || s3.Version() != 3 {
		t.Errorf("post-snapshot reopen: %d tasks at version %d", s3.Len(), s3.Version())
	}
}
