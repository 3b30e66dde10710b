package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
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
	if err := s.Snapshot(); err != nil { // warm-up: gob type caches
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
// own unchanged state does too. Verdicts used to be a gob map, written
// in random iteration order.
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

// v1Snapshot hand-writes a legacy one-value snapshot, optionally with
// the [CRC][SCRC] trailer.
func v1Snapshot(t testing.TB, snap snapshotV1, trailer bool) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if trailer {
		return withTrailer(buf.Bytes())
	}
	return buf.Bytes()
}

// withTrailer appends the [CRC32 of body][SCRC] snapshot trailer.
func withTrailer(body []byte) []byte {
	var tr [8]byte
	binary.BigEndian.PutUint32(tr[:4], crc32.ChecksumIEEE(body))
	copy(tr[4:], snapshotMagic)
	return append(body, tr[:]...)
}

// TestSnapshotV1Compat: v1 snapshots — with the CRC trailer, without
// it, and with nil Seqs — open to exactly the state they encode, scrub
// intact, and are rewritten as v2 by the next compaction.
func TestSnapshotV1Compat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tasks := make([]dpprior.TaskPosterior, 5)
	for i := range tasks {
		tasks[i] = mkTask(rng, 3)
	}
	gapped := []uint64{1, 2, 4, 5, 7} // seqs 3 and 6 were dropped by validation
	verdicts := map[uint64]bool{1: true, 4: false, 7: true}
	cases := []struct {
		name     string
		snap     snapshotV1
		trailer  bool
		wantSeqs []uint64
	}{
		{"trailer", snapshotV1{Version: 7, Tasks: tasks, Seqs: gapped, Verdicts: verdicts}, true, gapped},
		{"no-trailer", snapshotV1{Version: 7, Tasks: tasks, Seqs: gapped, Verdicts: verdicts}, false, gapped},
		{"nil-seqs", snapshotV1{Version: 5, Tasks: tasks, Verdicts: map[uint64]bool{2: true}}, true, []uint64{1, 2, 3, 4, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, snapshotName)
			if err := os.WriteFile(path, v1Snapshot(t, tc.snap, tc.trailer), 0o644); err != nil {
				t.Fatal(err)
			}
			check := func(s *Store, stage string) {
				t.Helper()
				gotTasks, _ := s.View()
				_, gotSeqs, v := s.ViewRecords()
				if s.Len() != len(tasks) || s.Version() != tc.snap.Version || v != tc.snap.Version {
					t.Fatalf("%s: len %d version %d, want %d/%d", stage, s.Len(), s.Version(), len(tasks), tc.snap.Version)
				}
				if !bytes.Equal(gobBytes(t, gotTasks), gobBytes(t, tasks)) {
					t.Fatalf("%s: tasks differ from the v1 snapshot's", stage)
				}
				if !reflect.DeepEqual(gotSeqs, tc.wantSeqs) {
					t.Fatalf("%s: seqs %v, want %v", stage, gotSeqs, tc.wantSeqs)
				}
				if !reflect.DeepEqual(s.Verdicts(), tc.snap.Verdicts) {
					t.Fatalf("%s: verdicts %v, want %v", stage, s.Verdicts(), tc.snap.Verdicts)
				}
			}
			s, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
			if err != nil {
				t.Fatal(err)
			}
			check(s, "v1 open")
			rep, err := s.Scrub(nil)
			if err != nil || !rep.Clean() {
				t.Fatalf("scrub of a v1 snapshot: %+v, %v", rep, err)
			}
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			raw := readFile(t, path)
			if !bytes.HasPrefix(raw, snapshotV2Magic) || !bytes.HasSuffix(raw, snapshotMagic) {
				t.Fatalf("compaction after a v1 open left %q…%q, want a v2 file", raw[:4], raw[len(raw)-4:])
			}
			re, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			check(re, "v2 reopen")
		})
	}
}
