package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// fullCovTask is mkTask with every off-diagonal covariance entry set
// (symmetrically), so packing has a whole upper triangle to keep.
func fullCovTask(rng *rand.Rand, dim int) dpprior.TaskPosterior {
	task := mkTask(rng, dim)
	for r := 0; r < dim; r++ {
		for c := 0; c < r; c++ {
			v := 0.1 * rng.NormFloat64()
			task.Sigma.Set(r, c, v)
			task.Sigma.Set(c, r, v)
		}
	}
	return task
}

// storeFileHashes are the SHA-256 sums of the files a store holds after
// the fixed sequence in TestPackedStoreWritesDenseBytes.
var storeFileHashes = map[string]string{
	snapshotName:   "192e4bc022916f65bef728cfef502533d9be0ba2c7624f5710bf3cbf5abdb402",
	logName:        "2711b1a603daec02d5514a9c1317b94b0bfaaa6fdc9f3fe2fffc7ea27f3209d4",
	"verdicts.log": "97edf9cf0e089fdb83484530a4b9ba743ac68ab8123cd124f13dd629eba17c43",
}

// TestPackedStoreWritesDenseBytes: packing changes what the store holds
// in memory, not what it writes. A fixed append sequence leaves the
// snapshot, log and verdict files as pinned; each log frame carries the
// appended task in the dense layout the wire codec writes for it;
// frames re-encoded by a memory-only store equal the log's frames; and
// a reopen unpacks the tasks appended.
func TestPackedStoreWritesDenseBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SnapshotEvery: 64, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open(Options{Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	rng := rand.New(rand.NewSource(77))
	var want []dpprior.TaskPosterior
	for i := 0; i < 100; i++ {
		task := fullCovTask(rng, 7)
		want = append(want, task)
		if _, err := s.Append(task); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.Append(task); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetVerdicts(map[uint64]bool{3: true, 70: false, 99: true}); err != nil {
		t.Fatal(err)
	}
	logged, _, err := s.FramesSince(64, 0) // the log holds seqs 65..100
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, sum := range storeFileHashes {
		got := sha256.Sum256(readFile(t, filepath.Join(dir, name)))
		if hex.EncodeToString(got[:]) != sum {
			t.Errorf("%s: sha256 %x, want %s", name, got, sum)
		}
	}

	// A task record is [header][kind][seq] and then the task, laid out
	// as a request carrying the dense task ends.
	const taskOffset = frameHeaderBytes + 1 + 8
	for i, fr := range logged {
		req := wire.AppendRequest(nil, &wire.Request{Kind: wire.ReportTask, Task: &want[fr.Seq-1]})
		if !bytes.HasSuffix(req, fr.Bytes[taskOffset:]) {
			t.Fatalf("frame %d (seq %d) does not carry the dense task's wire bytes", i, fr.Seq)
		}
	}

	reencoded, _, err := mem.FramesSince(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reencoded) != len(logged) {
		t.Fatalf("%d re-encoded frames, %d logged", len(reencoded), len(logged))
	}
	var log []byte
	for i := range logged {
		if !bytes.Equal(reencoded[i].Bytes, logged[i].Bytes) {
			t.Fatalf("frame %d: re-encoded bytes differ from the logged frame", logged[i].Seq)
		}
		log = append(log, logged[i].Bytes...)
	}
	if !bytes.Equal(log, readFile(t, filepath.Join(dir, logName))) {
		t.Error("the log's frames differ from the log file")
	}

	r, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, _ := r.View()
	if !bytes.Equal(gobBytes(t, got), gobBytes(t, want)) {
		t.Error("reopened tasks differ from the appended ones")
	}
}

// TestAppendLogsCanonicalTask: a covariance asymmetric in its last bit
// is logged as the packed form mirrors it, so the log frame, a frame
// re-encoded from the packed task and a reopened store agree with each
// other and with the append of the mirrored task.
func TestAppendLogsCanonicalTask(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	task := fullCovTask(rng, 6)
	canonical := task
	canonical.Sigma = task.Sigma.Clone()
	task.Sigma.Set(4, 2, math.Nextafter(task.Sigma.At(4, 2), math.Inf(1)))

	frame := func(task dpprior.TaskPosterior, dir string) []byte {
		s, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Append(task); err != nil {
			t.Fatal(err)
		}
		frames, _, err := s.FramesSince(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return frames[0].Bytes
	}
	dir := t.TempDir()
	logged := frame(task, dir)
	if want := frame(canonical, t.TempDir()); !bytes.Equal(logged, want) {
		t.Error("the asymmetric task's log frame differs from the mirrored task's")
	}
	if !bytes.Equal(logged, readFile(t, filepath.Join(dir, logName))) {
		t.Error("the log file differs from the logged frame")
	}
	mem, err := Open(Options{Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, err := mem.Append(task); err != nil {
		t.Fatal(err)
	}
	reencoded, _, err := mem.FramesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reencoded[0].Bytes, logged) {
		t.Error("the re-encoded frame differs from the logged frame")
	}
	r, err := Open(Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tasks, _, _ := r.ViewRecords()
	if len(tasks) != 1 || tasks[0].Fingerprint() != task.Fingerprint() {
		t.Error("the reopened task's fingerprint differs from the upload's")
	}
}

// TestStoredTaskFootprint pins what one stored task costs in memory: the
// packed floats, 8·(d + d(d+1)/2) bytes, plus at most
// storedTaskOverhead — the allocation's size-class rounding (48 B at
// both sizes here), the task's 40-byte slice entry and its 8-byte
// sequence number, with the spare capacity append leaves in both slices.
// The dense form measured 2,925 B at d = 17 and 20,989 B at d = 49.
func TestStoredTaskFootprint(t *testing.T) {
	const storedTaskOverhead = 192
	const tasks = 1000
	for _, dim := range []int{17, 49} {
		s, err := Open(Options{Logger: telemetry.Discard()})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(dim)))
		var before, after runtime.MemStats
		runtime.GC() // twice: objects with finalizers take a second cycle
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < tasks; i++ {
			if _, err := s.Append(fullCovTask(rng, dim)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perTask := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / tasks
		packed := int64(8 * (dim + dim*(dim+1)/2))
		t.Logf("d=%d: %d B per stored task, %d B of packed floats", dim, perTask, packed)
		if perTask > packed+storedTaskOverhead {
			t.Errorf("d=%d: %d B per stored task, budget %d + %d", dim, perTask, packed, storedTaskOverhead)
		}
		runtime.KeepAlive(s)
	}
}
