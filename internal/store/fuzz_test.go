package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// FuzzRecover feeds arbitrary bytes to the store as a log file. Recovery
// must never panic, must allocate in proportion to the file whatever its
// length prefixes claim, must leave a log it refuses as the gob layout
// untouched, and must be idempotent: whatever task set the first Open
// salvages, a second Open of the truncated log recovers the same set
// with nothing further to chop.
func FuzzRecover(f *testing.F) {
	// Seed with a valid two-record log, a torn version of it, and
	// pathological prefixes.
	rng := rand.New(rand.NewSource(7))
	var valid []byte
	for seq := uint64(1); seq <= 2; seq++ {
		valid = append(valid, taskFrame(f, seq, mkTask(rng, 3))...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3, 4, 9, 9, 9, 9})
	// An empty frame: intact, but no record, and no gob-layout frame.
	f.Add(make([]byte, 8))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(opts)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<20 {
			t.Fatalf("recovery of a %d-byte log allocated %d bytes", len(data), alloc)
		}
		if errors.Is(err, errLegacyLayout) {
			if !bytes.Equal(readFile(t, filepath.Join(dir, logName)), data) {
				t.Fatal("a log refused as the gob layout was changed")
			}
			return
		}
		if err != nil {
			// Only the snapshot may hard-fail Open, and there is none here.
			t.Fatalf("recovery hard-failed on log bytes: %v", err)
		}
		n, v := s.Len(), s.Version()
		if uint64(n) > v {
			t.Fatalf("recovered %d tasks above version %d", n, v)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := Open(opts)
		if err != nil {
			t.Fatalf("second open failed: %v", err)
		}
		defer r.Close()
		if r.Len() != n || r.Version() != v {
			t.Fatalf("recovery not idempotent: %d/%d then %d/%d", n, v, r.Len(), r.Version())
		}
		if ri := r.Recovery(); ri.Truncated {
			t.Fatalf("second open still truncating: %+v", ri)
		}
	})
}

// FuzzSnapshot feeds arbitrary bytes to the store as a snapshot file.
// Open must either load it or report it corrupt — never panic, and never
// allocate more than a bounded multiple of the file (the header's record
// count is untrusted). Whatever loads scrubs intact and survives a
// rewrite and reopen unchanged.
func FuzzSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	tasks := packAll(f, []dpprior.TaskPosterior{mkTask(rng, 3), mkTask(rng, 3), mkTask(rng, 3)})
	snapshot := func(verdicts []verdictRecord) []byte {
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, 4, tasks, []uint64{1, 3, 4}, verdicts); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	empty := wire.AppendSnapshotHeader(nil, 2, 0)
	for _, seed := range [][]byte{snapshot([]verdictRecord{{Seq: 3, Quarantined: true}}), snapshot(nil), empty} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-3])
		flipped := bytes.Clone(seed)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}
	// Task records whose seqs leave (0, Version] in order.
	gapped := wire.AppendSnapshotHeader(nil, 4, 3)
	for i, seq := range []uint64{1, 36, 4} {
		gapped = wire.AppendTaskRecord(gapped, seq, tasks[i])
	}
	f.Add(gapped)
	// A header claiming 2^61 records it does not hold.
	f.Add(wire.AppendSnapshotHeader(nil, 1<<62, 1<<61))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{Dir: dir, NoSync: true, SnapshotEvery: -1, Logger: telemetry.Discard()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(opts)
		runtime.ReadMemStats(&after)
		// Memory must follow the file, not the header's claims.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<20 {
			t.Fatalf("open of a %d-byte snapshot allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "is corrupt") {
				t.Fatalf("open failed without reporting the snapshot corrupt: %v", err)
			}
			return
		}
		defer s.Close()
		tasks, seqs, v := s.ViewRecords()
		if uint64(len(tasks)) > v || len(seqs) != len(tasks) {
			t.Fatalf("loaded %d tasks / %d seqs at version %d", len(tasks), len(seqs), v)
		}
		if rep, err := s.Scrub(nil); err != nil || !rep.SnapshotOK {
			t.Fatalf("loaded snapshot does not scrub intact: %+v, %v", rep, err)
		}
		verdicts := s.Verdicts()
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		r, err := Open(opts)
		if err != nil {
			t.Fatalf("rewrite of a loaded snapshot does not reopen: %v", err)
		}
		defer r.Close()
		_, rseqs, rv := r.ViewRecords()
		if rv != v || !reflect.DeepEqual(rseqs, seqs) || !reflect.DeepEqual(r.Verdicts(), verdicts) {
			t.Fatalf("rewrite changed the state: version %d→%d, seqs %v→%v", v, rv, seqs, rseqs)
		}
	})
}
