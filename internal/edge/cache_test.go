package edge

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/wire"
)

func testPrior(t *testing.T, seed int64, dim int) *dpprior.Prior {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, err := dpprior.Build(seedTasks(rng, 3, dim), buildOpts())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPriorCacheMemory(t *testing.T) {
	pc, err := NewPriorCache("")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pc.Get(); ok {
		t.Fatal("cold cache reported a prior")
	}
	if _, v, _ := pc.Get(); v != 0 {
		t.Fatalf("cold cache version %d", v)
	}
	p := testPrior(t, 300, 3)
	if err := pc.Put(p, 7); err != nil {
		t.Fatal(err)
	}
	got, v, ok := pc.Get()
	if !ok || v != 7 || got != p {
		t.Fatalf("Get = %v, %d, %v", got, v, ok)
	}
	// Invalid puts are rejected.
	if err := pc.Put(nil, 8); err == nil {
		t.Error("nil prior accepted")
	}
	if err := pc.Put(p, 0); err == nil {
		t.Error("version 0 accepted")
	}
}

func TestPriorCachePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prior.cache")
	pc, err := NewPriorCache(path)
	if err != nil {
		t.Fatal(err)
	}
	p := testPrior(t, 301, 4)
	if err := pc.Put(p, 3); err != nil {
		t.Fatal(err)
	}

	// A fresh cache (simulating a process restart) loads the entry.
	pc2, err := NewPriorCache(path)
	if err != nil {
		t.Fatal(err)
	}
	got, v, ok := pc2.Get()
	if !ok || v != 3 {
		t.Fatalf("reloaded cache: ok=%v version=%d", ok, v)
	}
	if got.Dim != p.Dim || len(got.Components) != len(p.Components) {
		t.Errorf("reloaded prior differs: dim %d vs %d", got.Dim, p.Dim)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("reloaded prior invalid: %v", err)
	}
}

// TestPriorCacheCorruptFile: a cache file that is not one intact frame
// holding a valid prior — bytes of no format, a gob-encoded entry from
// builds that wrote the cache with encoding/gob, a torn file, a
// bit-flipped file — reads as a cache miss, and the next Put replaces it.
func TestPriorCacheCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prior.cache")
	p := testPrior(t, 302, 3)
	good := wire.AppendPriorRecord(nil, 5, p)
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(struct {
		Version uint64
		Prior   *dpprior.Prior
	}{5, p}); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x04
	for name, data := range map[string][]byte{
		"not a frame": []byte("not a gob stream"),
		"gob":         old.Bytes(),
		"truncated":   good[:len(good)-9],
		"bit-flipped": flipped,
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		pc, err := NewPriorCache(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, v, ok := pc.Get(); ok || v != 0 {
			t.Fatalf("%s: cache served version %d", name, v)
		}
		if err := pc.Put(p, 6); err != nil {
			t.Fatal(err)
		}
		reloaded, err := NewPriorCache(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, v, ok := reloaded.Get(); !ok || v != 6 {
			t.Fatalf("%s: the Put after a miss reloads as version %d", name, v)
		}
	}
}

func TestPriorCacheNilReceiver(t *testing.T) {
	var pc *PriorCache
	if _, _, ok := pc.Get(); ok {
		t.Error("nil cache reported a prior")
	}
	if _, v, _ := pc.Get(); v != 0 {
		t.Error("nil cache has a version")
	}
}
