package edge

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/wire"
)

// PriorCache keeps the last good prior a device fetched, so a flaky or
// down cloud degrades training to "slightly stale prior" instead of
// "no prior at all". With a non-empty path the cache also persists
// across process restarts (one wire frame holding a PriorRecord,
// replaced by atomic rename), which is what a real edge deployment
// needs after a power cycle in a dead zone.
//
// The stored version feeds Device.Run's conditional fetch: a warm cache
// turns every refresh against an idle cloud into a handshake.
//
// PriorCache is safe for concurrent use.
type PriorCache struct {
	path string // "" = memory-only

	mu      sync.Mutex
	prior   *dpprior.Prior
	version uint64
}

// NewPriorCache creates a cache. path may be empty for a memory-only
// cache; when the file exists its contents are loaded and validated. A
// file that is not one intact frame holding a valid prior (torn,
// bit-flipped, or written in another format) is a cache miss: the
// cache starts cold and the next Put replaces the file. Only a file
// that exists but cannot be read is an error.
func NewPriorCache(path string) (*PriorCache, error) {
	pc := &PriorCache{path: path}
	if path == "" {
		return pc, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return pc, nil
	}
	if err != nil {
		return nil, fmt.Errorf("edge: prior cache: %w", err)
	}
	var rec wire.Record
	payload, err := wire.Unframe(data)
	if err != nil || wire.DecodeRecord(payload, &rec) != nil || rec.Kind != wire.PriorRecord ||
		rec.Version == 0 || rec.Prior.Validate() != nil {
		return pc, nil
	}
	pc.prior, pc.version = rec.Prior, rec.Version
	return pc, nil
}

// Get returns the cached prior and its version; ok is false when the
// cache is cold.
func (pc *PriorCache) Get() (prior *dpprior.Prior, version uint64, ok bool) {
	if pc == nil {
		return nil, 0, false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.prior, pc.version, pc.prior != nil
}

// Put stores a freshly fetched prior and persists it when the cache is
// file-backed. A nil prior or zero version is rejected.
func (pc *PriorCache) Put(prior *dpprior.Prior, version uint64) error {
	if prior == nil || version == 0 {
		return fmt.Errorf("edge: prior cache: refusing to store nil prior / version 0")
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.prior, pc.version = prior, version
	if pc.path == "" {
		return nil
	}
	// Atomic replace: write a sibling temp file, then rename over the
	// target, so a crash mid-write never leaves a torn cache.
	dir := filepath.Dir(pc.path)
	tmp, err := os.CreateTemp(dir, ".prior-cache-*")
	if err != nil {
		return fmt.Errorf("edge: prior cache: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(wire.AppendPriorRecord(nil, version, prior)); err != nil {
		tmp.Close()
		return fmt.Errorf("edge: prior cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("edge: prior cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), pc.path); err != nil {
		return fmt.Errorf("edge: prior cache: %w", err)
	}
	return nil
}
