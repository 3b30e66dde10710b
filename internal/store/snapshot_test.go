package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/drdp/drdp/internal/telemetry"
)

// TestSnapshotAllocBudget: a compaction streams the pool to disk, so it
// allocates a small fraction of the file it writes — not an encoded
// copy of the pool plus a doubling buffer (6.5× the file before
// snapshots were streamed).
func TestSnapshotAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs 2048 appends")
	}
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SnapshotEvery: -1, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Full-covariance posteriors over 8 parameters: ~650 B per record, a
	// 1.3 MB file, the size of an edge_round pool at this count.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2048; i++ {
		task := mkTask(rng, 8)
		for r := 0; r < 8; r++ {
			for c := 0; c < r; c++ {
				v := 0.1 * rng.NormFloat64()
				task.Sigma.Set(r, c, v)
				task.Sigma.Set(c, r, v)
			}
		}
		if _, err := s.Append(task); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil { // warm-up
		t.Fatal(err)
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	ratio := perRun / float64(fi.Size())
	t.Logf("snapshot of 2048 tasks: %d-byte file, %.0f bytes allocated per compaction (%.2f× the file)",
		fi.Size(), perRun, ratio)
	if ratio > 0.25 {
		t.Fatalf("compaction allocated %.2f× the snapshot file; budget is 0.25×", ratio)
	}
}

// TestSnapshotBytesDeterministic: two stores given the same appends and
// verdicts write byte-identical snapshots, and a store rewriting its
// own unchanged state does too: verdicts are written in seq order, not
// in map iteration order.
func TestSnapshotBytesDeterministic(t *testing.T) {
	verdicts := make(map[uint64]bool)
	for seq := uint64(1); seq <= 40; seq++ {
		verdicts[seq] = seq%3 == 0
	}
	write := func() []byte {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, SnapshotEvery: -1, NoSync: true, Logger: telemetry.Discard()})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 40; i++ {
			if _, err := s.Append(mkTask(rng, 3)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SetVerdicts(verdicts); err != nil {
			t.Fatal(err)
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		first := readFile(t, filepath.Join(dir, snapshotName))
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if again := readFile(t, filepath.Join(dir, snapshotName)); !bytes.Equal(first, again) {
			t.Fatal("rewriting an unchanged store changed its snapshot bytes")
		}
		return first
	}
	if a, b := write(), write(); !bytes.Equal(a, b) {
		t.Fatal("two stores with the same appends and verdicts wrote different snapshot bytes")
	}
}
