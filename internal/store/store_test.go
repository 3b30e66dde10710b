package store

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// mkTask builds a small deterministic task posterior.
func mkTask(rng *rand.Rand, dim int) dpprior.TaskPosterior {
	mu := make(mat.Vec, dim)
	for i := range mu {
		mu[i] = rng.NormFloat64()
	}
	sig := mat.NewDense(dim, dim)
	for i := 0; i < dim; i++ {
		sig.Set(i, i, 0.5+rng.Float64())
	}
	return dpprior.TaskPosterior{Mu: mu, Sigma: sig, N: 10 + rng.Intn(90)}
}

// packAll packs tasks the way Append does.
func packAll(tb testing.TB, tasks []dpprior.TaskPosterior) []dpprior.StoredTask {
	tb.Helper()
	out := make([]dpprior.StoredTask, len(tasks))
	for i, t := range tasks {
		st, err := dpprior.PackTask(t)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = st
	}
	return out
}

// taskFrame is the log frame Append writes for task at seq.
func taskFrame(tb testing.TB, seq uint64, task dpprior.TaskPosterior) []byte {
	tb.Helper()
	return wire.AppendTaskRecord(nil, seq, packAll(tb, []dpprior.TaskPosterior{task})[0])
}

// frameEnds returns the end offset of each frame in raw.
func frameEnds(tb testing.TB, raw []byte) []int64 {
	tb.Helper()
	r := bytes.NewReader(raw)
	var ends []int64
	for r.Len() > 0 {
		if _, err := wire.ReadFrame(r, int64(r.Len()), nil); err != nil {
			tb.Fatal(err)
		}
		ends = append(ends, int64(len(raw)-r.Len()))
	}
	return ends
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMemoryStore(t *testing.T) {
	s, err := Open(Options{Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 3; i++ {
		v, err := s.Append(mkTask(rng, 4))
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(i) {
			t.Errorf("append %d returned version %d", i, v)
		}
	}
	tasks, v := s.View()
	if len(tasks) != 3 || v != 3 || s.Len() != 3 || s.Version() != 3 {
		t.Errorf("view: %d tasks at version %d", len(tasks), v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(mkTask(rng, 4)); err != ErrClosed {
		t.Errorf("append on closed store: %v", err)
	}
}

// TestPersistRecover: close and reopen recovers the exact task set —
// byte-identical under gob, same version.
func TestPersistRecover(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	s, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	var want []dpprior.TaskPosterior
	for i := 0; i < 7; i++ {
		task := mkTask(rng, 3)
		want = append(want, task)
		if _, err := s.Append(task); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, v := r.View()
	if v != 7 {
		t.Errorf("recovered version %d, want 7", v)
	}
	if !bytes.Equal(gobBytes(t, got), gobBytes(t, want)) {
		t.Error("recovered task set is not byte-identical")
	}
	if ri := r.Recovery(); ri.Truncated {
		t.Errorf("clean shutdown reported truncation: %+v", ri)
	}
}

// TestCrashRecoveryTornTail: a crash mid-append leaves a torn record;
// recovery must keep every complete record, chop the tail, and leave the
// log appendable.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	s, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Append(mkTask(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: append a torn record (header + partial payload).
	logPath := filepath.Join(dir, logName)
	full := taskFrame(t, 6, mkTask(rng, 3))
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := full[:len(full)-7]
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	truncated := telemetry.StoreTruncatedBytes.Value()
	r, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	if got := telemetry.StoreTruncatedBytes.Value() - truncated; got < float64(len(torn)) {
		t.Errorf("drdp_store_truncated_bytes_total moved by %v, want ≥ %d", got, len(torn))
	}
	if r.Version() != 5 || r.Len() != 5 {
		t.Errorf("recovered to version %d with %d tasks, want 5/5", r.Version(), r.Len())
	}
	ri := r.Recovery()
	if !ri.Truncated || ri.TruncatedBytes != int64(len(torn)) {
		t.Errorf("recovery info %+v, want truncated %d bytes", ri, len(torn))
	}
	// The log must be clean again: append and survive another reopen.
	if v, err := r.Append(mkTask(rng, 3)); err != nil || v != 6 {
		t.Fatalf("append after recovery: v=%d err=%v", v, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Version() != 6 || r2.Recovery().Truncated {
		t.Errorf("second reopen: version %d, recovery %+v", r2.Version(), r2.Recovery())
	}
}

// TestCrashRecoveryCorruptRecord: a bit flip in a record's payload fails
// its checksum; that record and everything after it are dropped.
func TestCrashRecoveryCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	s, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for i := 0; i < 4; i++ {
		if _, err := s.Append(mkTask(rng, 3)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte inside record 3 (0-based 2).
	logPath := filepath.Join(dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[ends[1]+frameHeaderBytes+3] ^= 0xff
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatalf("recovery failed on corrupt record: %v", err)
	}
	defer r.Close()
	if r.Version() != 2 || r.Len() != 2 {
		t.Errorf("recovered to version %d with %d tasks, want 2/2", r.Version(), r.Len())
	}
	if ri := r.Recovery(); !ri.Truncated || ri.TruncatedBytes != ends[3]-ends[1] {
		t.Errorf("recovery info %+v, want %d truncated bytes", ri, ends[3]-ends[1])
	}
}

// TestSnapshotCompaction: crossing SnapshotEvery compacts the log; the
// recovered state is identical and mostly snapshot-sourced.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	s, err := Open(Options{Dir: dir, SnapshotEvery: 4, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	var want []dpprior.TaskPosterior
	for i := 0; i < 10; i++ {
		task := mkTask(rng, 3)
		want = append(want, task)
		if _, err := s.Append(task); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot after %d appends: %v", 10, err)
	}

	r, err := Open(Options{Dir: dir, SnapshotEvery: 4, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, v := r.View()
	if v != 10 {
		t.Errorf("recovered version %d, want 10", v)
	}
	if !bytes.Equal(gobBytes(t, got), gobBytes(t, want)) {
		t.Error("compacted store recovered a different task set")
	}
	ri := r.Recovery()
	if ri.SnapshotTasks < 4 {
		t.Errorf("snapshot holds %d tasks; compaction never ran?", ri.SnapshotTasks)
	}
	if ri.SnapshotTasks+ri.LogRecords != 10 {
		t.Errorf("snapshot %d + log %d != 10", ri.SnapshotTasks, ri.LogRecords)
	}
}

// TestReplaySkipsSnapshotCoveredRecords: a crash between snapshot write
// and log truncation leaves records the snapshot already covers; replay
// must skip them instead of duplicating tasks.
func TestReplaySkipsSnapshotCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	s, err := Open(Options{Dir: dir, SnapshotEvery: -1, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append(mkTask(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the pre-truncation crash: put already-covered records (and
	// one new record) back in the log.
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(2); seq <= 4; seq++ {
		if _, err := f.Write(taskFrame(t, seq, mkTask(rng, 3))); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	r, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Version() != 4 || r.Len() != 4 {
		t.Errorf("recovered version %d with %d tasks, want 4/4", r.Version(), r.Len())
	}
	if ri := r.Recovery(); ri.SkippedRecords != 2 || ri.LogRecords != 1 {
		t.Errorf("recovery info %+v, want 2 skipped / 1 replayed", ri)
	}
}

// TestCorruptSnapshotIsHardError: unlike the log tail, a torn snapshot
// cannot be partially trusted — Open must refuse bytes that are not
// frames, and a snapshot cut at a frame boundary, whose every frame is
// intact but which holds fewer task records than its header counts.
func TestCorruptSnapshotIsHardError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("not a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Logger: telemetry.Discard()}); err == nil {
		t.Fatal("corrupt snapshot opened cleanly")
	}

	dir = t.TempDir()
	s, err := Open(Options{Dir: dir, SnapshotEvery: -1, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		if _, err := s.Append(mkTask(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, snapshotName)
	raw := readFile(t, path)
	ends := frameEnds(t, raw)
	if err := os.WriteFile(path, raw[:ends[len(ends)-2]], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Logger: telemetry.Discard()}); err == nil {
		t.Fatal("snapshot missing its last task record opened cleanly")
	}
}

// TestConcurrentAppendAndView exercises the store under the race
// detector: appenders, readers, and a forced snapshot all at once.
func TestConcurrentAppendAndView(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), SnapshotEvery: 8, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, perWriter = 4, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				if _, err := s.Append(mkTask(rng, 3)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tasks, v := s.View()
			if uint64(len(tasks)) > v {
				t.Errorf("view: %d tasks above version %d", len(tasks), v)
				return
			}
			_ = s.Len()
			_ = s.Version()
		}
	}()
	wg.Wait()
	if s.Version() != writers*perWriter {
		t.Errorf("final version %d, want %d", s.Version(), writers*perWriter)
	}
}
