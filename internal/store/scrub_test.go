package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/telemetry"
)

// peerSource adapts a local *Store into a RepairSource.
type peerSource struct{ peer *Store }

func (p peerSource) FramesSince(after uint64, maxFrames int) ([]Frame, uint64, error) {
	return p.peer.FramesSince(after, maxFrames)
}
func (p peerSource) Verdicts() (map[uint64]bool, error) { return p.peer.Verdicts(), nil }

// openPlain opens a store on the real filesystem with compaction off
// (the whole history stays in the log, which is what the byte-identity
// assertions compare).
func openPlain(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Logger: telemetry.Discard(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// flipByte corrupts one byte of the named file in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestScrubCleanStore: an intact store scrubs clean, checking every
// frame.
func TestScrubCleanStore(t *testing.T) {
	s := openPlain(t, t.TempDir())
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		if _, err := s.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetVerdicts(map[uint64]bool{3: true}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.FramesChecked != 8 || rep.VerdictFrames != 1 {
		t.Fatalf("clean store scrub: %+v", rep)
	}
	// The walk must not disturb the append position.
	if _, err := s.Append(mkTask(rng, 4)); err != nil {
		t.Fatalf("append after scrub: %v", err)
	}
	if rep, err = s.Scrub(nil); err != nil || rep.FramesChecked != 9 {
		t.Fatalf("scrub after post-scrub append: %+v err %v", rep, err)
	}
}

// TestScrubDetectsAndRepairsBitRot: bit rot in the follower's log is
// quarantined by a detect-only pass and repaired to a byte-identical
// log by a replica-assisted pass.
func TestScrubDetectsAndRepairsBitRot(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, follower := openPlain(t, leaderDir), openPlain(t, followerDir)
	defer leader.Close()
	defer follower.Close()

	rng := rand.New(rand.NewSource(2))
	var ends []int64
	for i := 0; i < 10; i++ {
		if _, err := leader.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	replicate(t, leader, follower, 0)
	if follower.Version() != 10 {
		t.Fatalf("follower at version %d after replication", follower.Version())
	}

	// Record frame boundaries on the follower to land the flip inside
	// frame 4's payload.
	logPath := filepath.Join(followerDir, logName)
	raw := readFile(t, logPath)
	off := int64(0)
	for off < int64(len(raw)) {
		_, n, err := readRecord(bytes.NewReader(raw[off:]), DefaultMaxRecordBytes)
		if err != nil {
			t.Fatal(err)
		}
		off += n
		ends = append(ends, off)
	}
	flipByte(t, logPath, ends[3]+headerBytes+2)

	// Detect-only pass: quarantines frames 5..10, leaves bytes alone,
	// keeps serving from memory.
	rep, err := follower.Scrub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFrames != 6 || rep.QuarantinedFrom != 5 || rep.QuarantinedTo != 10 {
		t.Fatalf("detect-only scrub: %+v", rep)
	}
	if rep.Repaired || rep.RepairedFrames != 0 {
		t.Fatalf("detect-only scrub repaired: %+v", rep)
	}
	if follower.Len() != 10 {
		t.Fatalf("scrub disturbed in-memory state: len %d", follower.Len())
	}

	// Replica-assisted pass: the log ends byte-identical to the leader's.
	rep, err = follower.Scrub(peerSource{leader})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || rep.RepairedFrames != 6 {
		t.Fatalf("repair scrub: %+v", rep)
	}
	if !bytes.Equal(readFile(t, logPath), readFile(t, filepath.Join(leaderDir, logName))) {
		t.Fatal("repaired follower log is not byte-identical to the leader's")
	}
	// And the repaired log is a valid recovery image.
	follower.Close()
	re := reopenClean(t, followerDir)
	if re.Version() != 10 || re.Len() != 10 || re.Recovery().Truncated {
		t.Fatalf("reopen after repair: version %d len %d recovery %+v",
			re.Version(), re.Len(), re.Recovery())
	}
}

// TestScrubRepairsFaultFSBitRot: rot injected by the FaultFS during
// replication is healed back to the leader's exact bytes.
func TestScrubRepairsFaultFSBitRot(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader := openPlain(t, leaderDir)
	defer leader.Close()
	ffs := NewFaultFS(nil, FaultPlan{Seed: 42, BitFlipRate: 0.3})
	follower, err := Open(Options{Dir: followerDir, Logger: telemetry.Discard(), SnapshotEvery: -1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		if _, err := leader.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
		// Frame-by-frame replication so flips land in distinct frames.
		frames, _, err := leader.FramesSince(follower.Version(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := follower.ApplyFrames(frames); err != nil {
			t.Fatal(err)
		}
	}
	if ffs.Injected("bit-flip") == 0 {
		t.Fatal("no bit flips injected; raise the rate or appends")
	}
	ffs.Disarm() // scrub must not be sabotaged by fresh rot
	rep, err := follower.Scrub(peerSource{leader})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatalf("scrub saw no corruption despite %d injected flips", ffs.Injected("bit-flip"))
	}
	if !rep.Repaired {
		t.Fatalf("scrub did not fully repair: %+v", rep)
	}
	if !bytes.Equal(readFile(t, filepath.Join(followerDir, logName)),
		readFile(t, filepath.Join(leaderDir, logName))) {
		t.Fatal("repaired follower log is not byte-identical to the leader's")
	}
}

// TestScrubVerdictSidecarRepair: corrupt verdict-sidecar bytes survive
// a reopen as a truncated (verdict-dropping) recovery, and the scrub
// re-derives the dropped verdicts from the replica instead of losing
// them.
func TestScrubVerdictSidecarRepair(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, follower := openPlain(t, leaderDir), openPlain(t, followerDir)
	defer leader.Close()

	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 6; i++ {
		if _, err := leader.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[uint64]bool{2: true, 4: false, 5: true}
	if err := leader.SetVerdicts(want); err != nil {
		t.Fatal(err)
	}
	replicate(t, leader, follower, 0)
	if err := follower.ApplyVerdicts(leader.Verdicts()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(follower.Verdicts(), want) {
		t.Fatalf("follower verdicts %v before corruption", follower.Verdicts())
	}
	follower.Close()

	// Flip a byte in the first sidecar record: recovery truncates from
	// there, dropping every verdict on the floor.
	flipByte(t, filepath.Join(followerDir, verdictLogName), headerBytes+1)
	follower = openPlain(t, followerDir)
	defer follower.Close()
	if !follower.Recovery().Truncated {
		t.Fatal("reopen did not detect the corrupt sidecar")
	}
	if len(follower.Verdicts()) != 0 {
		t.Fatalf("expected reopened store to have lost verdicts, has %v", follower.Verdicts())
	}

	// The scrub restores them from the replica — not silently dropped.
	rep, err := follower.Scrub(peerSource{leader})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(follower.Verdicts(), want) {
		t.Fatalf("verdicts after scrub = %v, want %v (report %+v)", follower.Verdicts(), want, rep)
	}
	// The rewritten sidecar must also survive the next reopen.
	follower.Close()
	re := reopenClean(t, followerDir)
	if !reflect.DeepEqual(re.Verdicts(), want) {
		t.Fatalf("verdicts after reopen = %v, want %v", re.Verdicts(), want)
	}
}

// TestScrubLiveVerdictCorruption: rot under a running store (no reopen)
// is caught by the CRC walk and healed in place from memory + replica.
func TestScrubLiveVerdictCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openPlain(t, dir)
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		if _, err := s.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[uint64]bool{1: true, 3: true}
	if err := s.SetVerdicts(want); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, verdictLogName), headerBytes)
	rep, err := s.Scrub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.VerdictCorrupt || rep.VerdictsRewritten != 2 {
		t.Fatalf("live sidecar scrub: %+v", rep)
	}
	s.Close()
	re := reopenClean(t, dir)
	if !reflect.DeepEqual(re.Verdicts(), want) {
		t.Fatalf("verdicts after rewrite+reopen = %v, want %v", re.Verdicts(), want)
	}
}

// TestScrubSnapshotSelfHeal: a corrupt snapshot — a hard error on the
// next restart — is rewritten from memory by the scrub.
func TestScrubSnapshotSelfHeal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Logger: telemetry.Discard(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 5; i++ {
		if _, err := s.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	flipByte(t, filepath.Join(dir, snapshotName), 10)
	// Sanity: a reopen now would be a hard error.
	if _, err := Open(Options{Dir: dir, Logger: telemetry.Discard()}); err == nil {
		t.Fatal("corrupt snapshot did not fail a cold open")
	}
	rep, err := s.Scrub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotOK || !rep.SnapshotRepaired {
		t.Fatalf("snapshot scrub: %+v", rep)
	}
	s.Close()
	re := reopenClean(t, dir)
	if re.Version() != 8 || re.Len() != 8 {
		t.Fatalf("reopen after snapshot heal: version %d len %d, want 8/8", re.Version(), re.Len())
	}
}

// TestScrubClearsPoison: a store poisoned by a transient write failure
// is restored to writable by a scrub pass that re-verifies the log.
func TestScrubClearsPoison(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, FaultPlan{Seed: 13, WriteErrorRate: 1})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		if _, err := s.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Arm()
	if _, err := s.Append(mkTask(rng, 4)); err == nil {
		t.Fatal("append under write fault succeeded")
	}
	if _, err := s.Append(mkTask(rng, 4)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("store not poisoned: %v", err)
	}
	ffs.Disarm() // the transient fault has passed
	rep, err := s.Scrub(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PoisonCleared || s.Poisoned() != nil {
		t.Fatalf("scrub did not clear poison: %+v, poisoned=%v", rep, s.Poisoned())
	}
	if v, err := s.Append(mkTask(rng, 4)); err != nil || v != 4 {
		t.Fatalf("append after poison cleared: version %d err %v", v, err)
	}
	s.Close()
	if re := reopenClean(t, dir); re.Version() != 4 || re.Recovery().Truncated {
		t.Fatalf("reopen after cleared poison: version %d recovery %+v", re.Version(), re.Recovery())
	}
}

// TestScrubSkipsPartialRepair: a repair source that cannot supply the
// whole quarantined range must not be spliced in — truncating the
// quarantined tail and appending a partial pull would leave the disk
// image ending before the in-memory state, silently losing acked
// frames on the next restart. The pass leaves the bytes alone and a
// later pass with a caught-up peer repairs fully.
func TestScrubSkipsPartialRepair(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, follower := openPlain(t, leaderDir), openPlain(t, followerDir)
	laggard := openPlain(t, t.TempDir())
	defer leader.Close()
	defer follower.Close()
	defer laggard.Close()

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		if _, err := leader.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	replicate(t, leader, follower, 0)
	// The laggard stopped pulling at version 7: it cannot cover the top
	// of a range quarantined on the follower.
	for laggard.Version() < 7 {
		frames, _, err := leader.FramesSince(laggard.Version(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := laggard.ApplyFrames(frames); err != nil {
			t.Fatal(err)
		}
	}

	// Rot frame 4 on the follower: frames 5..10 are quarantined, but the
	// laggard can supply only 5..7.
	logPath := filepath.Join(followerDir, logName)
	raw := readFile(t, logPath)
	off := int64(0)
	for i := 0; i < 4; i++ {
		_, n, err := readRecord(bytes.NewReader(raw[off:]), DefaultMaxRecordBytes)
		if err != nil {
			t.Fatal(err)
		}
		off += n
	}
	flipByte(t, logPath, off-2)
	corrupted := readFile(t, logPath)

	rep, err := follower.Scrub(peerSource{laggard})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired || rep.RepairedFrames != 0 {
		t.Fatalf("partial pull was spliced: %+v", rep)
	}
	if !bytes.Equal(readFile(t, logPath), corrupted) {
		t.Fatal("partial repair touched the on-disk log")
	}
	if follower.Len() != 10 {
		t.Fatalf("scrub disturbed in-memory state: len %d", follower.Len())
	}

	// A caught-up peer still repairs the same quarantine byte-identical.
	rep, err = follower.Scrub(peerSource{leader})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired {
		t.Fatalf("full repair failed after skipped partial: %+v", rep)
	}
	if !bytes.Equal(readFile(t, logPath), readFile(t, filepath.Join(leaderDir, logName))) {
		t.Fatal("repaired follower log is not byte-identical to the leader's")
	}
}

// TestStartScrubber: the background loop detects and repairs rot
// without outside help.
func TestStartScrubber(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, follower := openPlain(t, leaderDir), openPlain(t, followerDir)
	defer leader.Close()
	defer follower.Close()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 6; i++ {
		if _, err := leader.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	replicate(t, leader, follower, 0)
	flipByte(t, filepath.Join(followerDir, logName), headerBytes+3)

	reports := make(chan ScrubReport, 16)
	sc := follower.StartScrubber(5*time.Millisecond,
		func() RepairSource { return peerSource{leader} },
		func(rep ScrubReport, err error) {
			if err == nil {
				reports <- rep
			}
		})
	defer sc.Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case rep := <-reports:
			if rep.Repaired {
				if !bytes.Equal(readFile(t, filepath.Join(followerDir, logName)),
					readFile(t, filepath.Join(leaderDir, logName))) {
					t.Fatal("scrubber-repaired log not byte-identical to leader's")
				}
				return
			}
		case <-deadline:
			t.Fatal("scrubber never repaired the rot")
		}
	}
}
