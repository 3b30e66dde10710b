package store

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"syscall"

	"github.com/drdp/drdp/internal/telemetry"
)

// Disk-fault injection. FaultFS wraps another FS and injects the
// failure modes real disks exhibit — failed and short writes, fsync
// errors, rename errors on snapshot install, ENOSPC after a byte
// budget, and post-write bit flips (bit rot that lands after the write
// syscall succeeded) — from a seeded RNG, so a failing chaos run
// replays exactly under the same seed.

// Injected fault errors. ErrInjectedNoSpc wraps the os-level sentinel
// (syscall.ENOSPC) so production error handling keyed on
// errors.Is(err, syscall.ENOSPC) treats the injected fault like the
// real thing; the others have no single canonical errno and stay
// package-local sentinels.
var (
	ErrInjectedWrite  = errors.New("faultfs: injected write error")
	ErrInjectedShort  = errors.New("faultfs: injected short write")
	ErrInjectedSync   = errors.New("faultfs: injected fsync error")
	ErrInjectedRename = errors.New("faultfs: injected rename error")
	ErrInjectedNoSpc  = fmt.Errorf("faultfs: injected: %w", syscall.ENOSPC)
)

// FaultPlan configures a FaultFS. Rates are per-operation probabilities
// in [0,1], drawn from the seeded RNG in call order — deterministic for
// a single-goroutine caller, and reproducibly pseudo-random under
// concurrency (the draw sequence is serialized by a mutex).
type FaultPlan struct {
	Seed int64
	// WriteErrorRate fails a Write before any byte reaches the file.
	WriteErrorRate float64
	// ShortWriteRate persists a strict prefix of the buffer, then fails —
	// the torn-write case recovery must truncate.
	ShortWriteRate float64
	// SyncErrorRate fails a Sync after the kernel may or may not have
	// flushed (the caller cannot tell — exactly like a real fsync lie).
	SyncErrorRate float64
	// RenameErrorRate fails a Rename, leaving the old target in place.
	RenameErrorRate float64
	// BitFlipRate corrupts one already-written byte of a successful
	// Write: the syscall reported success, the medium rotted the data.
	BitFlipRate float64
	// ENOSPCAfter fails every write once this many bytes (across the
	// whole FS) have been written. <= 0 means no budget.
	ENOSPCAfter int64
}

// FaultFS is a deterministic, seedable fault-injecting FS.
type FaultFS struct {
	base FS

	mu       sync.Mutex
	rng      *rand.Rand
	plan     FaultPlan
	written  int64
	disarmed bool
	counts   map[string]int
}

// NewFaultFS wraps base (nil = the real filesystem) with the plan's
// fault injection.
func NewFaultFS(base FS, plan FaultPlan) *FaultFS {
	if base == nil {
		base = OSFS()
	}
	return &FaultFS{
		base:   base,
		rng:    rand.New(rand.NewSource(plan.Seed)),
		plan:   plan,
		counts: make(map[string]int),
	}
}

// Disarm suspends fault injection (setup and verification phases of a
// test run clean); Arm re-enables it.
func (f *FaultFS) Disarm() { f.mu.Lock(); f.disarmed = true; f.mu.Unlock() }

// Arm (re-)enables fault injection.
func (f *FaultFS) Arm() { f.mu.Lock(); f.disarmed = false; f.mu.Unlock() }

// Injected reports how many faults of one kind ("write", "short-write",
// "sync", "rename", "enospc", "bit-flip") were injected so far.
func (f *FaultFS) Injected(kind string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[kind]
}

// hit draws one fault decision; kind is counted when it fires.
func (f *FaultFS) hit(rate float64, kind string) bool {
	if rate <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.disarmed {
		return false
	}
	if f.rng.Float64() >= rate {
		return false
	}
	f.injectLocked(kind)
	return true
}

func (f *FaultFS) injectLocked(kind string) {
	f.counts[kind]++
	telemetry.StoreFaultInjected(kind).Inc()
}

// charge accounts n written bytes against the ENOSPC budget, returning
// false once the budget is exhausted (the write must fail).
func (f *FaultFS) charge(n int) bool {
	if f.plan.ENOSPCAfter <= 0 {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.disarmed {
		return true
	}
	if f.written >= f.plan.ENOSPCAfter {
		f.injectLocked("enospc")
		return false
	}
	f.written += int64(n)
	return true
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error { return f.base.MkdirAll(path, perm) }

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if f.hit(f.plan.RenameErrorRate, "rename") {
		return fmt.Errorf("faultfs: rename %s: %w", oldpath, ErrInjectedRename)
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error { return f.base.Remove(name) }

// faultFile wraps one open file with the plan's write/sync faults.
type faultFile struct {
	fs *FaultFS
	f  File
}

func (ff *faultFile) Name() string               { return ff.f.Name() }
func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }
func (ff *faultFile) Close() error               { return ff.f.Close() }
func (ff *faultFile) Truncate(size int64) error  { return ff.f.Truncate(size) }

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	return ff.f.Seek(offset, whence)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if !ff.fs.charge(len(p)) {
		return 0, fmt.Errorf("faultfs: write %s: %w", ff.f.Name(), ErrInjectedNoSpc)
	}
	if ff.fs.hit(ff.fs.plan.WriteErrorRate, "write") {
		return 0, fmt.Errorf("faultfs: write %s: %w", ff.f.Name(), ErrInjectedWrite)
	}
	if len(p) > 1 && ff.fs.hit(ff.fs.plan.ShortWriteRate, "short-write") {
		// Persist a strict prefix, then fail: the torn frame lands on disk.
		ff.fs.mu.Lock()
		n := 1 + ff.fs.rng.Intn(len(p)-1)
		ff.fs.mu.Unlock()
		if wn, err := ff.f.Write(p[:n]); err != nil {
			return wn, err
		}
		return n, fmt.Errorf("faultfs: write %s: %w", ff.f.Name(), ErrInjectedShort)
	}
	n, err := ff.f.Write(p)
	if err != nil || n != len(p) {
		return n, err
	}
	if ff.fs.hit(ff.fs.plan.BitFlipRate, "bit-flip") {
		ff.rot(p)
	}
	return n, nil
}

// rot flips one bit inside the just-written region. The write call has
// already returned success by the time the caller sees it — this is the
// silent-corruption case only a CRC walk (the scrubber) can catch.
func (ff *faultFile) rot(p []byte) {
	end, err := ff.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return
	}
	ff.fs.mu.Lock()
	off := end - int64(len(p)) + int64(ff.fs.rng.Intn(len(p)))
	bit := byte(1) << ff.fs.rng.Intn(8)
	ff.fs.mu.Unlock()
	if _, err := ff.f.Seek(off, io.SeekStart); err != nil {
		return
	}
	var b [1]byte
	if _, err := ff.f.Read(b[:]); err != nil {
		ff.f.Seek(end, io.SeekStart)
		return
	}
	b[0] ^= bit
	if _, err := ff.f.Seek(off, io.SeekStart); err != nil {
		return
	}
	ff.f.Write(b[:])
	ff.f.Seek(end, io.SeekStart)
}

func (ff *faultFile) Sync() error {
	if ff.fs.hit(ff.fs.plan.SyncErrorRate, "sync") {
		return fmt.Errorf("faultfs: sync %s: %w", ff.f.Name(), ErrInjectedSync)
	}
	return ff.f.Sync()
}
