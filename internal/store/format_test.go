package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
)

// readDir returns every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		out[e.Name()] = readFile(t, filepath.Join(dir, e.Name()))
	}
	return out
}

// writeDir replaces dir's contents with files.
func writeDir(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRefusesGobLayout: directories written by the gob-record
// store (testdata/gob-layout: one compacted, with snapshot.gob, and one
// whose log was never compacted) fail Open with errLegacyLayout, and
// Open changes, adds and removes no file there. Without the check the
// log-only directory's big-endian frames would read as a torn tail and
// be truncated to nothing.
func TestOpenRefusesGobLayout(t *testing.T) {
	for _, name := range []string{"compacted", "log-only"} {
		t.Run(name, func(t *testing.T) {
			want := readDir(t, filepath.Join("testdata", "gob-layout", name))
			dir := t.TempDir()
			writeDir(t, dir, want)
			s, err := Open(Options{Dir: dir, Validate: dpprior.TaskValidator(), Logger: telemetry.Discard()})
			if !errors.Is(err, errLegacyLayout) {
				if s != nil {
					s.Close()
				}
				t.Fatalf("Open = %v, want errLegacyLayout", err)
			}
			got := readDir(t, dir)
			if len(got) != len(want) {
				t.Fatalf("Open left %d files, want the %d it found", len(got), len(want))
			}
			for file, b := range want {
				if !bytes.Equal(got[file], b) {
					t.Errorf("%s changed", file)
				}
			}
		})
	}
}

// TestTornTailHugeLength: a frame header claiming 1 GiB at the end of a
// small log is a torn tail. Recovery bounds the length by the bytes
// left in the file, so it truncates the header without allocating what
// it claims.
func TestTornTailHugeLength(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2; i++ {
		if _, err := s.Append(mkTask(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	tail := binary.LittleEndian.AppendUint32(nil, 1<<30)
	tail = append(tail, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	logPath := filepath.Join(dir, logName)
	if err := os.WriteFile(logPath, append(readFile(t, logPath), tail...), 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Fatalf("recovery allocated %d bytes for a header claiming 1 GiB", alloc)
	}
	if ri := r.Recovery(); !ri.Truncated || ri.TruncatedBytes != int64(len(tail)) || r.Len() != 2 {
		t.Fatalf("recovery %+v with %d tasks, want the %d-byte tail truncated and 2 tasks", ri, r.Len(), len(tail))
	}
}

// TestScrubCatchesEveryByteFlip: in a store holding a snapshot (with a
// verdict), a log and a verdict sidecar, a flip of any one byte of any
// file is caught — Open truncates the log or sidecar tail, Open refuses
// the snapshot, or Scrub reports a corrupt frame — and a store that
// opens holds a prefix of the tasks appended, never anything else. Each
// frame's own CRC and the snapshot header's task count are all that
// vouch for these bytes.
func TestScrubCatchesEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SnapshotEvery: 4, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	var want []dpprior.TaskPosterior
	for i := 1; i <= 6; i++ {
		task := mkTask(rng, 3)
		want = append(want, task)
		if _, err := s.Append(task); err != nil {
			t.Fatal(err)
		}
		if i == 3 || i == 6 { // one verdict folds into the snapshot, one stays in the sidecar
			if err := s.SetVerdicts(map[uint64]bool{uint64(i): true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()
	pristine := readDir(t, dir)
	for _, name := range []string{snapshotName, logName, verdictLogName} {
		if len(pristine[name]) == 0 {
			t.Fatalf("%s is empty; the store layout under test did not form", name)
		}
	}

	for _, name := range []string{snapshotName, logName, verdictLogName} {
		for off := range pristine[name] {
			files := make(map[string][]byte, len(pristine))
			for n, b := range pristine {
				files[n] = b
			}
			files[name] = bytes.Clone(pristine[name])
			files[name][off] ^= 0xff
			writeDir(t, dir, files)

			r, err := Open(Options{Dir: dir, NoSync: true, SnapshotEvery: -1, Logger: telemetry.Discard()})
			if err != nil {
				if name != snapshotName {
					t.Fatalf("%s byte %d: Open failed: %v", name, off, err)
				}
				continue // the snapshot was refused
			}
			got, seqs, _ := r.ViewRecords()
			if len(got) > len(want) {
				t.Fatalf("%s byte %d: recovered %d tasks from %d", name, off, len(got), len(want))
			}
			for i, st := range got {
				if seqs[i] != uint64(i+1) || st.Fingerprint() != want[i].Fingerprint() {
					t.Fatalf("%s byte %d: task %d (seq %d) is not the one appended", name, off, i, seqs[i])
				}
			}
			for seq, q := range r.Verdicts() {
				if !q || (seq != 3 && seq != 6) {
					t.Fatalf("%s byte %d: recovered verdict %d=%v, never set", name, off, seq, q)
				}
			}
			caught := r.Recovery().Truncated
			if !caught {
				rep, err := r.Scrub(nil)
				if err != nil {
					t.Fatal(err)
				}
				caught = !rep.Clean()
			}
			r.Close()
			if !caught {
				t.Fatalf("%s byte %d: flip went unnoticed", name, off)
			}
		}
	}
}
