package store

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// openFault opens a store in dir under a FaultFS with the given plan,
// disarmed so the open itself runs clean.
func openFault(t *testing.T, dir string, plan FaultPlan) (*Store, *FaultFS) {
	t.Helper()
	ffs := NewFaultFS(nil, plan)
	ffs.Disarm()
	s, err := Open(Options{Dir: dir, Logger: telemetry.Discard(), FS: ffs, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s, ffs
}

// reopenClean reopens dir on the real filesystem and returns the store.
func reopenClean(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Logger: telemetry.Discard(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestAppendWriteErrorPoisonsStore: a failed append-path write latches
// ErrPoisoned — the store fails fast on every later write instead of
// appending after a possibly-torn frame — and a reopen recovers exactly
// the acknowledged appends.
func TestAppendWriteErrorPoisonsStore(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, FaultPlan{Seed: 1, WriteErrorRate: 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		if _, err := s.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Arm()
	poisoned := telemetry.StorePoisoned.Value()
	if _, err := s.Append(mkTask(rng, 4)); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("append under write fault: %v", err)
	}
	if got := telemetry.StorePoisoned.Value() - poisoned; got < 1 {
		t.Errorf("drdp_store_poisoned_total moved by %v, want ≥ 1", got)
	}
	// Every later write fails fast with ErrPoisoned, even ones that
	// would now succeed; reads still serve from memory.
	ffs.Disarm()
	if _, err := s.Append(mkTask(rng, 4)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append on poisoned store: %v", err)
	}
	if err := s.SetVerdicts(map[uint64]bool{1: true}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("verdict write on poisoned store: %v", err)
	}
	if _, err := s.ApplyFrames([]wire.Frame{{Seq: 99}}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("apply frames on poisoned store: %v", err)
	}
	if s.Version() != 3 || s.Len() != 3 {
		t.Fatalf("poisoned store serves version %d len %d, want 3/3", s.Version(), s.Len())
	}
	s.Close()

	re := reopenClean(t, dir)
	if re.Version() != 3 || re.Len() != 3 {
		t.Fatalf("reopen recovered version %d len %d, want 3/3", re.Version(), re.Len())
	}
	if re.Recovery().Truncated {
		t.Fatal("reopen found a torn tail; the failed append leaked bytes")
	}
}

// requirePoisoned fails the test unless the store's next write fails
// fast with ErrPoisoned.
func requirePoisoned(t *testing.T, s *Store) {
	t.Helper()
	if _, err := s.ApplyFrames([]wire.Frame{{Seq: 99}}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("store not poisoned: next write returned %v", err)
	}
}

// TestShortWriteNeverAcknowledgedHalfFrame: a torn write (strict prefix
// persisted) fails the append, poisons the store, and the half-frame is
// chopped back off — no acknowledged append is ever half-written.
func TestShortWriteNeverAcknowledgedHalfFrame(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, FaultPlan{Seed: 7, ShortWriteRate: 1})
	rng := rand.New(rand.NewSource(2))
	var acked uint64
	for i := 0; i < 5; i++ {
		v, err := s.Append(mkTask(rng, 4))
		if err != nil {
			t.Fatal(err)
		}
		acked = v
	}
	ffs.Arm()
	if _, err := s.Append(mkTask(rng, 4)); !errors.Is(err, ErrInjectedShort) {
		t.Fatalf("append under short-write fault: %v", err)
	}
	if got := ffs.Injected("short-write"); got != 1 {
		t.Fatalf("short-write injections = %d, want 1", got)
	}
	requirePoisoned(t, s)
	s.Close()

	re := reopenClean(t, dir)
	if re.Version() != acked || re.Len() != int(acked) {
		t.Fatalf("reopen recovered version %d len %d, want %d acknowledged appends",
			re.Version(), re.Len(), acked)
	}
	if re.Recovery().Truncated {
		t.Fatal("recovery truncated a tail: poisoning left the torn frame on disk")
	}
}

// TestSyncErrorPoisonsStore: fsync failure is as fatal as a failed
// write — the kernel may or may not have flushed, so the frame cannot
// be acknowledged.
func TestSyncErrorPoisonsStore(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, FaultPlan{Seed: 3, SyncErrorRate: 1})
	rng := rand.New(rand.NewSource(3))
	if _, err := s.Append(mkTask(rng, 4)); err != nil {
		t.Fatal(err)
	}
	ffs.Arm()
	if _, err := s.Append(mkTask(rng, 4)); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("append under sync fault: %v", err)
	}
	requirePoisoned(t, s)
	s.Close()
	if re := reopenClean(t, dir); re.Version() != 1 {
		t.Fatalf("reopen recovered version %d, want 1", re.Version())
	}
}

// TestSnapshotCompactionFailureSurfaces: a rename failure during
// compaction must not be swallowed — the append that triggered it still
// succeeds (it is already durable), drdp_store_snapshot_failures_total
// counts the failure, the old snapshot stays authoritative, and the next
// compaction retries.
func TestSnapshotCompactionFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FaultPlan{Seed: 5, RenameErrorRate: 1})
	ffs.Disarm()
	s, err := Open(Options{Dir: dir, Logger: telemetry.Discard(), FS: ffs, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3; i++ {
		if _, err := s.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Arm()
	// The 4th append crosses SnapshotEvery; compaction fails on the
	// rename but the append itself must succeed.
	failures := telemetry.StoreSnapshotFailures.Value()
	v, err := s.Append(mkTask(rng, 4))
	if err != nil {
		t.Fatalf("append with failing compaction: %v", err)
	}
	if v != 4 {
		t.Fatalf("append returned version %d, want 4", v)
	}
	if got := telemetry.StoreSnapshotFailures.Value() - failures; got < 1 {
		t.Errorf("drdp_store_snapshot_failures_total moved by %v, want ≥ 1", got)
	}
	if got := ffs.Injected("rename"); got == 0 {
		t.Fatal("no rename fault injected")
	}
	if s.snapVersion != 0 {
		t.Fatalf("failed compaction moved the snapshot to version %d", s.snapVersion)
	}
	// The next compaction (faults disarmed) retries; the failure did not
	// poison the store, whose append is durable.
	ffs.Disarm()
	if _, err := s.Append(mkTask(rng, 4)); err != nil {
		t.Fatalf("append after a failed compaction: %v", err)
	}
	if s.snapVersion != 5 {
		t.Fatalf("retried compaction left the snapshot at version %d, want 5", s.snapVersion)
	}
	s.Close()

	if re := reopenClean(t, dir); re.Version() != 5 || re.Len() != 5 {
		t.Fatalf("reopen recovered version %d len %d, want 5/5", re.Version(), re.Len())
	}
}

// TestENOSPCFailsFastAndRecovers: once the byte budget is exhausted
// every write fails with the injected ENOSPC; acknowledged appends
// survive the reopen.
func TestENOSPCFailsFastAndRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FaultPlan{Seed: 9, ENOSPCAfter: 1})
	ffs.Disarm()
	s, err := Open(Options{Dir: dir, Logger: telemetry.Discard(), FS: ffs, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if _, err := s.Append(mkTask(rng, 4)); err != nil {
		t.Fatal(err)
	}
	ffs.Arm()
	// The 1-byte budget admits one more write (charged before the
	// threshold trips), then the disk is full.
	if _, err := s.Append(mkTask(rng, 4)); err != nil {
		t.Fatalf("append within ENOSPC budget: %v", err)
	}
	if _, err := s.Append(mkTask(rng, 4)); !errors.Is(err, ErrInjectedNoSpc) {
		t.Fatalf("append past ENOSPC budget: %v", err)
	}
	requirePoisoned(t, s)
	s.Close()
	re := reopenClean(t, dir)
	if re.Version() != 2 || re.Len() != 2 {
		t.Fatalf("reopen recovered version %d len %d, want the 2 acknowledged appends", re.Version(), re.Len())
	}
	if re.Recovery().Truncated {
		t.Fatal("reopen found a torn tail after ENOSPC")
	}
}

// TestVerdictWriteFailurePoisons: the verdict sidecar shares the
// poison discipline — a failed verdict write never half-persists.
func TestVerdictWriteFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, FaultPlan{Seed: 11, WriteErrorRate: 1})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3; i++ {
		if _, err := s.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetVerdicts(map[uint64]bool{1: true}); err != nil {
		t.Fatal(err)
	}
	ffs.Arm()
	if err := s.SetVerdicts(map[uint64]bool{2: true}); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("verdict write under fault: %v", err)
	}
	requirePoisoned(t, s)
	s.Close()
	re := reopenClean(t, dir)
	verdicts := re.Verdicts()
	if len(verdicts) != 1 || !verdicts[1] {
		t.Fatalf("reopen verdicts = %v, want exactly {1:true}", verdicts)
	}
}
