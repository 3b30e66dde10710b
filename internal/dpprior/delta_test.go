package dpprior

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/mat"
)

// deltaPrior builds a small valid prior whose component shapes are
// controlled by the centers, so tests can change exactly one cluster.
func deltaPrior(t *testing.T, centers []float64, weights []float64, base float64) *Prior {
	t.Helper()
	dim := 3
	comps := make([]Component, len(centers))
	for i, c := range centers {
		mu := mat.Vec{c, c, c}
		sig := mat.NewDense(dim, dim)
		for j := 0; j < dim; j++ {
			sig.Set(j, j, 0.5+0.1*float64(i))
		}
		comps[i] = Component{Weight: weights[i], Mu: mu, Sigma: sig, Count: float64(i + 1)}
	}
	p := &Prior{Alpha: 1, Components: comps, BaseWeight: base, BaseSigma: 2, Dim: dim}
	if err := p.Validate(); err != nil {
		t.Fatalf("test prior invalid: %v", err)
	}
	return p
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDiffApplyRoundTrip: a one-component change plus global reweighting
// produces a delta that (a) keeps the unchanged components, (b) applies
// back to an exactly equal prior, and (c) is smaller on the wire.
func TestDiffApplyRoundTrip(t *testing.T) {
	old := deltaPrior(t, []float64{1, 5, 9}, []float64{0.3, 0.3, 0.3}, 0.1)
	// New prior: same shapes for clusters 0 and 1 (reweighted), cluster 2
	// replaced by a new shape, plus an extra component.
	next := deltaPrior(t, []float64{1, 5, 12, 20}, []float64{0.2, 0.2, 0.2, 0.3}, 0.1)
	// Force clusters 0,1 to be bitwise-identical shapes.
	next.Components[0].Mu = old.Components[0].Mu
	next.Components[0].Sigma = old.Components[0].Sigma
	next.Components[1].Mu = old.Components[1].Mu
	next.Components[1].Sigma = old.Components[1].Sigma

	d := Diff(old, next, 3, 4)
	if len(d.Keep) != 2 {
		t.Fatalf("kept %d components, want 2 (delta %+v)", len(d.Keep), d)
	}
	if len(d.Add) != 2 {
		t.Fatalf("added %d components, want 2", len(d.Add))
	}
	if d.WireSize() >= next.WireSize() {
		t.Errorf("delta wire size %d not smaller than full %d", d.WireSize(), next.WireSize())
	}

	got, err := d.Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, got), gobBytes(t, next)) {
		t.Error("patched prior is not byte-identical to the target")
	}
}

// TestDiffAllChanged: nothing survives → pure-Add delta that still
// applies correctly (the caller falls back to full on size).
func TestDiffAllChanged(t *testing.T) {
	old := deltaPrior(t, []float64{1, 5}, []float64{0.4, 0.5}, 0.1)
	next := deltaPrior(t, []float64{2, 6}, []float64{0.4, 0.5}, 0.1)
	d := Diff(old, next, 1, 2)
	if len(d.Keep) != 0 || len(d.Add) != 2 {
		t.Fatalf("keep=%d add=%d, want 0/2", len(d.Keep), len(d.Add))
	}
	got, err := d.Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, got), gobBytes(t, next)) {
		t.Error("pure-add delta did not reproduce the target")
	}
}

// TestDeltaRemovedComponent: dropping a component works and weights
// re-validate.
func TestDeltaRemovedComponent(t *testing.T) {
	old := deltaPrior(t, []float64{1, 5, 9}, []float64{0.3, 0.3, 0.3}, 0.1)
	next := deltaPrior(t, []float64{1, 5}, []float64{0.45, 0.45}, 0.1)
	next.Components[0].Mu = old.Components[0].Mu
	next.Components[0].Sigma = old.Components[0].Sigma
	next.Components[1].Mu = old.Components[1].Mu
	next.Components[1].Sigma = old.Components[1].Sigma

	d := Diff(old, next, 5, 6)
	if len(d.Keep) != 2 || len(d.Add) != 0 {
		t.Fatalf("keep=%d add=%d, want 2/0", len(d.Keep), len(d.Add))
	}
	got, err := d.Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Components) != 2 {
		t.Fatalf("patched prior has %d components, want 2", len(got.Components))
	}
}

// TestDeltaApplyRejectsCorruptDeltas: malformed index sets must error,
// not panic or produce an invalid prior.
func TestDeltaApplyRejectsCorruptDeltas(t *testing.T) {
	old := deltaPrior(t, []float64{1, 5}, []float64{0.4, 0.5}, 0.1)
	next := deltaPrior(t, []float64{1, 6}, []float64{0.4, 0.5}, 0.1)
	next.Components[0].Mu = old.Components[0].Mu
	next.Components[0].Sigma = old.Components[0].Sigma
	good := Diff(old, next, 1, 2)

	cases := map[string]func(*PriorDelta){
		"keep-old-out-of-range": func(d *PriorDelta) { d.Keep[0].Old = 99 },
		"keep-new-out-of-range": func(d *PriorDelta) { d.Keep[0].New = 99 },
		"double-fill":           func(d *PriorDelta) { d.Add[0].New = d.Keep[0].New },
		"hole":                  func(d *PriorDelta) { d.NumComponents = 3 },
		"dim-mismatch":          func(d *PriorDelta) { d.Dim = 7 },
	}
	for name, corrupt := range cases {
		d := *good
		d.Keep = append([]DeltaKeep(nil), good.Keep...)
		d.Add = append([]DeltaAdd(nil), good.Add...)
		corrupt(&d)
		if _, err := d.Apply(old); err == nil {
			t.Errorf("%s: corrupt delta applied cleanly", name)
		}
	}
	if _, err := good.Apply(nil); err == nil {
		t.Error("applying to a nil base prior did not error")
	}
}

// TestFingerprintStability: fingerprints are deterministic, ignore
// weight/count, and differ across shapes.
func TestFingerprintStability(t *testing.T) {
	p := deltaPrior(t, []float64{1, 2}, []float64{0.4, 0.5}, 0.1)
	a := &p.Components[0]
	fp := a.Fingerprint()
	if fp != a.Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
	b := *a
	b.Weight, b.Count = 0.9, 42
	if b.Fingerprint() != fp {
		t.Error("fingerprint depends on weight/count")
	}
	if p.Components[1].Fingerprint() == fp {
		t.Error("distinct shapes share a fingerprint")
	}
}

// TestDiffOnRebuiltPriors: the realistic path — Build over n tasks, then
// over n+1 where the extra task founds its own far-away cluster. The
// surviving clusters must pair as Keeps so the delta beats the full
// prior on the wire.
func TestDiffOnRebuiltPriors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dim := 4
	mkTask := func(center float64) TaskPosterior {
		mu := make(mat.Vec, dim)
		for i := range mu {
			mu[i] = center + 0.05*rng.NormFloat64()
		}
		sig := mat.NewDense(dim, dim)
		for i := 0; i < dim; i++ {
			sig.Set(i, i, 0.1)
		}
		return TaskPosterior{Mu: mu, Sigma: sig, N: 50}
	}
	var tasks []TaskPosterior
	for i := 0; i < 4; i++ {
		tasks = append(tasks, mkTask(-20))
	}
	for i := 0; i < 4; i++ {
		tasks = append(tasks, mkTask(20))
	}
	opts := BuildOptions{Alpha: 1, Seed: 3}
	oldP, err := Build(tasks, opts)
	if err != nil {
		t.Fatal(err)
	}
	newP, err := Build(append(tasks, mkTask(60)), opts)
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(oldP, newP, 8, 9)
	if len(d.Keep) == 0 {
		t.Fatalf("no components survived the rebuild: keep=%d add=%d", len(d.Keep), len(d.Add))
	}
	if d.WireSize() >= newP.WireSize() {
		t.Errorf("delta %dB not smaller than full prior %dB", d.WireSize(), newP.WireSize())
	}
	// The fingerprinted diff a server runs on published priors must
	// answer exactly as Diff does.
	fd := DiffFingerprinted(oldP, newP, oldP.Fingerprints(), newP.Fingerprints(), 8, 9)
	if !bytes.Equal(gobBytes(t, fd), gobBytes(t, d)) {
		t.Errorf("DiffFingerprinted = %+v, Diff = %+v", fd, d)
	}
	for name, delta := range map[string]*PriorDelta{"Diff": d, "DiffFingerprinted": fd} {
		got, err := delta.Apply(oldP)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gobBytes(t, got), gobBytes(t, newP)) {
			t.Errorf("prior patched by %s differs from the rebuilt prior", name)
		}
	}
}
