package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/drdp/drdp/internal/telemetry"
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
	flipped := Frame{Seq: frames[0].Seq, Bytes: append([]byte(nil), frames[0].Bytes...)}
	flipped.Bytes[len(flipped.Bytes)-1] ^= 0x40
	if _, err := follower.ApplyFrames([]Frame{flipped}); err == nil {
		t.Fatalf("corrupt frame accepted")
	}
	mislabeled := Frame{Seq: frames[1].Seq + 10, Bytes: frames[1].Bytes}
	if _, err := follower.ApplyFrames([]Frame{mislabeled}); err == nil {
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

// TestFrameCacheFillsOnceFollowed: a durable store caches the frames it
// appends only after a follower has pulled, so a store nobody replicates
// from holds no encoded copy of its log. A follower caches the frames it
// applies, and once it leads it serves those very bytes.
func TestFrameCacheFillsOnceFollowed(t *testing.T) {
	leader, follower := openPair(t)
	rng := rand.New(rand.NewSource(23))
	const n = 9
	for i := 0; i < n; i++ {
		if _, err := leader.Append(mkTask(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	cached := func(s *Store) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.frameCache)
	}
	if got := cached(leader); got != 0 {
		t.Fatalf("unreplicated store caches %d frames after %d appends, want 0", got, n)
	}

	// The first pull re-encodes what it ships (and caches it); from then
	// on each append is cached as written.
	replicate(t, leader, follower, 4)
	seq, err := leader.Append(mkTask(rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	leader.mu.Lock()
	hit, ok := leader.frameCache[seq]
	leader.mu.Unlock()
	if !ok {
		t.Fatalf("append %d after a pull was not cached", seq)
	}
	frames, _, err := leader.FramesSince(seq-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || frames[0].Seq != seq || &frames[0].Bytes[0] != &hit[0] {
		t.Fatalf("pull after append %d did not serve the cached frame", seq)
	}
	tasks, seqs, _ := leader.ViewRecords()
	var rec logRecord
	rec.Seq = seqs[len(seqs)-1]
	tasks[len(tasks)-1].UnpackInto(&rec.Task)
	fresh, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frames[0].Bytes, fresh) {
		t.Fatal("cached frame differs from a re-encode of its record")
	}
	log := readLog(t, leader.opts.Dir)
	if !bytes.HasSuffix(log, fresh) {
		t.Fatal("cached frame differs from the bytes the log holds")
	}

	// The follower cached every frame it applied; promoted, it serves
	// them verbatim.
	if _, err := follower.ApplyFrames(frames); err != nil {
		t.Fatal(err)
	}
	if got := cached(follower); got != n+1 {
		t.Fatalf("follower caches %d of the %d frames it applied", got, n+1)
	}
	served, _, err := follower.FramesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(served) != n+1 || &served[n].Bytes[0] != &hit[0] {
		t.Fatalf("promoted follower served %d frames, the last not the bytes it applied", len(served))
	}
	if !bytes.Equal(readLog(t, follower.opts.Dir), log) {
		t.Fatal("follower log differs from the leader's")
	}
}
