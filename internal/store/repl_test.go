package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// replicate pulls frames from leader into follower in batches until the
// follower's version reaches the leader's, returning the batch count.
func replicate(t *testing.T, leader, follower *Store, batch int) int {
	t.Helper()
	pulls := 0
	for {
		frames, upTo, err := leader.FramesSince(follower.Version(), batch)
		if err != nil {
			t.Fatalf("FramesSince: %v", err)
		}
		if len(frames) == 0 {
			if follower.Version() < upTo {
				t.Fatalf("follower stuck at %d below leader %d", follower.Version(), upTo)
			}
			return pulls
		}
		pulls++
		if _, err := follower.ApplyFrames(frames); err != nil {
			t.Fatalf("ApplyFrames: %v", err)
		}
	}
}

func readLog(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	return b
}

func openPair(t *testing.T) (leader, follower *Store) {
	t.Helper()
	var err error
	// SnapshotEvery < 0 keeps both full logs on disk so the test can
	// compare them byte for byte.
	leader, err = Open(Options{Dir: t.TempDir(), SnapshotEvery: -1, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatalf("open leader: %v", err)
	}
	follower, err = Open(Options{Dir: t.TempDir(), SnapshotEvery: -1, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	t.Cleanup(func() { leader.Close(); follower.Close() })
	return leader, follower
}

func TestReplicationByteIdenticalLog(t *testing.T) {
	leader, follower := openPair(t)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 23; i++ {
		if _, err := leader.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	replicate(t, leader, follower, 7)
	if follower.Version() != leader.Version() {
		t.Fatalf("follower version %d, leader %d", follower.Version(), leader.Version())
	}
	lt, _ := leader.View()
	ft, _ := follower.View()
	if !bytes.Equal(gobBytes(t, lt), gobBytes(t, ft)) {
		t.Fatalf("replicated task set differs from leader's")
	}
	if !bytes.Equal(readLog(t, leader.opts.Dir), readLog(t, follower.opts.Dir)) {
		t.Fatalf("replicated log is not byte-identical to the leader's")
	}
	// Re-applying an already-covered batch is a no-op.
	frames, _, err := leader.FramesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := follower.ApplyFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if v != leader.Version() || follower.Len() != leader.Len() {
		t.Fatalf("stale re-apply changed the follower: version %d len %d", v, follower.Len())
	}
	if !bytes.Equal(readLog(t, leader.opts.Dir), readLog(t, follower.opts.Dir)) {
		t.Fatalf("stale re-apply grew the follower log")
	}
}

func TestReplicationVerdictSidecar(t *testing.T) {
	leader, follower := openPair(t)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 6; i++ {
		if _, err := leader.Append(mkTask(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.SetVerdicts(map[uint64]bool{2: true, 5: true, 6: false}); err != nil {
		t.Fatal(err)
	}
	replicate(t, leader, follower, 4)
	if err := follower.ApplyVerdicts(leader.Verdicts()); err != nil {
		t.Fatal(err)
	}
	got, want := follower.Verdicts(), leader.Verdicts()
	if len(got) != len(want) {
		t.Fatalf("follower has %d verdicts, want %d", len(got), len(want))
	}
	for seq, q := range want {
		if got[seq] != q {
			t.Fatalf("verdict for seq %d: %v, want %v", seq, got[seq], q)
		}
	}
	// Re-shipping the identical map must not grow the sidecar.
	before, err := os.Stat(filepath.Join(follower.opts.Dir, verdictLogName))
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyVerdicts(leader.Verdicts()); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(follower.opts.Dir, verdictLogName))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("idempotent re-ship grew verdict sidecar from %d to %d bytes", before.Size(), after.Size())
	}
	// A verdict ahead of the follower's version is deferred, not an error.
	if err := follower.ApplyVerdicts(map[uint64]bool{99: true}); err != nil {
		t.Fatalf("future verdict should be deferred: %v", err)
	}
	if _, ok := follower.Verdicts()[99]; ok {
		t.Fatalf("future verdict was applied before its task arrived")
	}
}

// TestFollowerTornTailRecovery is the mid-stream crash scenario: the
// follower dies while a frame is half-written, recovery truncates the
// torn tail and rolls the version back to the last intact frame, and the
// next pull re-requests from there — converging to a byte-identical log.
func TestFollowerTornTailRecovery(t *testing.T) {
	leader, follower := openPair(t)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 12; i++ {
		if _, err := leader.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	replicate(t, leader, follower, 5)
	fdir := follower.opts.Dir
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last frame mid-payload, as a crash during ApplyFrames would.
	path := filepath.Join(fdir, logName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	follower, err = Open(Options{Dir: fdir, SnapshotEvery: -1, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	defer follower.Close()
	if !follower.Recovery().Truncated {
		t.Fatalf("torn tail not detected")
	}
	if follower.Version() != leader.Version()-1 {
		t.Fatalf("follower recovered at %d, want %d", follower.Version(), leader.Version()-1)
	}
	replicate(t, leader, follower, 5)
	if !bytes.Equal(readLog(t, leader.opts.Dir), readLog(t, fdir)) {
		t.Fatalf("log not byte-identical after torn-tail re-request")
	}
}

func TestApplyFramesRejectsCorruptAndMislabeled(t *testing.T) {
	leader, follower := openPair(t)
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 3; i++ {
		if _, err := leader.Append(mkTask(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	frames, _, err := leader.FramesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	flipped := wire.Frame{Seq: frames[0].Seq, Bytes: append([]byte(nil), frames[0].Bytes...)}
	flipped.Bytes[len(flipped.Bytes)-1] ^= 0x40
	if _, err := follower.ApplyFrames([]wire.Frame{flipped}); err == nil {
		t.Fatalf("corrupt frame accepted")
	}
	mislabeled := wire.Frame{Seq: frames[1].Seq + 10, Bytes: frames[1].Bytes}
	if _, err := follower.ApplyFrames([]wire.Frame{mislabeled}); err == nil {
		t.Fatalf("mislabeled frame accepted")
	}
	if follower.Version() != 0 || follower.Len() != 0 {
		t.Fatalf("rejected frames mutated the follower")
	}
}

// TestReplicationConcurrentPull races a pulling follower against a
// leader that is still appending (run under -race in CI).
func TestReplicationConcurrentPull(t *testing.T) {
	leader, follower := openPair(t)
	const total = 60
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(25))
		for i := 0; i < total; i++ {
			if _, err := leader.Append(mkTask(rng, 3)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for follower.Version() < total {
		frames, _, err := leader.FramesSince(follower.Version(), 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := follower.ApplyFrames(frames); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if !bytes.Equal(readLog(t, leader.opts.Dir), readLog(t, follower.opts.Dir)) {
		t.Fatalf("concurrent replication diverged from leader log")
	}
}

// TestFramesSinceIsLogBytes: the frames a store serves are exactly the
// bytes its log file holds — on the leader that appended them and on a
// follower that applied them — because both re-encode a frame from the
// stored task and its seq, and Append wrote it the same way.
func TestFramesSinceIsLogBytes(t *testing.T) {
	leader, follower := openPair(t)
	rng := rand.New(rand.NewSource(23))
	const n = 9
	for i := 0; i < n; i++ {
		if _, err := leader.Append(fullCovTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	replicate(t, leader, follower, 4)
	for _, s := range []*Store{leader, follower} {
		frames, _, err := s.FramesSince(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) != n {
			t.Fatalf("%d frames served, want %d", len(frames), n)
		}
		var served []byte
		for i, fr := range frames {
			if fr.Seq != uint64(i+1) {
				t.Fatalf("frame %d carries seq %d", i, fr.Seq)
			}
			served = append(served, fr.Bytes...)
		}
		if !bytes.Equal(served, readLog(t, s.opts.Dir)) {
			t.Fatal("served frames differ from the log file")
		}
		// A pull from the middle is a suffix of the same bytes.
		tail, _, err := s.FramesSince(5, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(tail) != 2 || !bytes.Equal(tail[0].Bytes, frames[5].Bytes) || !bytes.Equal(tail[1].Bytes, frames[6].Bytes) {
			t.Fatal("a pull from seq 5 differs from the full pull")
		}
	}
}
