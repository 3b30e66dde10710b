package main

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drdp/drdp/internal/store"
)

// meterFS wraps the store's real filesystem and counts what the store
// asks of the disk: fsyncs and their latency, bytes written, and the
// wall time spent inside write/sync/rename calls. It is installed only
// on traced runs (through StoreOptions.FS / ClusterConfig.NodeFS), so
// the measured path of an untraced run is the unwrapped OSFS.
type meterFS struct {
	store.FS
	syncs      atomic.Int64
	writeBytes atomic.Int64
	busyNs     atomic.Int64

	mu      sync.Mutex
	syncLat []float64 // seconds; capped at meterSyncSamples
}

const meterSyncSamples = 1 << 16

func newMeterFS() *meterFS { return &meterFS{FS: store.OSFS()} }

func (m *meterFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f, err := m.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &meterFile{File: f, m: m}, nil
}

func (m *meterFS) CreateTemp(dir, pattern string) (store.File, error) {
	f, err := m.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &meterFile{File: f, m: m}, nil
}

func (m *meterFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := m.FS.Rename(oldpath, newpath)
	m.busyNs.Add(int64(time.Since(start)))
	return err
}

type meterFile struct {
	store.File
	m *meterFS
}

func (f *meterFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.m.busyNs.Add(int64(time.Since(start)))
	f.m.writeBytes.Add(int64(n))
	return n, err
}

func (f *meterFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.m.busyNs.Add(int64(d))
	f.m.syncs.Add(1)
	f.m.mu.Lock()
	if len(f.m.syncLat) < meterSyncSamples {
		f.m.syncLat = append(f.m.syncLat, d.Seconds())
	}
	f.m.mu.Unlock()
	return err
}

// meterReading is a point-in-time copy of the counters, so the timed
// section can be reported as a delta.
type meterReading struct {
	syncs, writeBytes, busyNs int64
	syncSamples               int
}

func (m *meterFS) read() meterReading {
	m.mu.Lock()
	n := len(m.syncLat)
	m.mu.Unlock()
	return meterReading{syncs: m.syncs.Load(), writeBytes: m.writeBytes.Load(), busyNs: m.busyNs.Load(), syncSamples: n}
}

// syncLatBetween returns the fsync latencies recorded between two
// readings.
func (m *meterFS) syncLatBetween(from, to meterReading) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]float64(nil), m.syncLat[from.syncSamples:to.syncSamples]...)
}
