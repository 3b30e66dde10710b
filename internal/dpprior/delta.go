package dpprior

import (
	"fmt"
	"hash/fnv"
	"math"
)

// Delta synchronization: when the cloud rebuilds the prior after a new
// task report, most mixture components usually survive bit-identically —
// a new task lands in one cluster (or founds its own), the other
// clusters keep their members and therefore moment-match to exactly the
// same mean and covariance; only the CRP weights (whose denominator
// α+K grew) change. The heavy payload of a component is its covariance
// (d² floats), so shipping "keep component i, new weight w" instead of
// the component itself is where the wire savings live.
//
// A PriorDelta describes the new prior relative to a specific old one
// the receiver already holds: Keep entries reference old components by
// index (with updated weight/count), Add entries carry full new
// components, and components the new prior dropped are simply never
// referenced. Apply reconstructs the new prior exactly — same component
// order, same bytes — so a patched cache is indistinguishable from a
// full fetch.

// Fingerprint returns a stable identity for the component's shape (its
// mean and covariance, not its weight): two components with the same
// fingerprint are, modulo hash collisions, the same cluster. Diff uses
// it to pair surviving components across rebuilds; exact float equality
// is verified before a pairing is trusted.
func (c *Component) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	write := func(f float64) {
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	write(float64(len(c.Mu)))
	for _, v := range c.Mu {
		write(v)
	}
	if c.Sigma != nil {
		for _, v := range c.Sigma.Data {
			write(v)
		}
	}
	return h.Sum64()
}

// sameShape reports exact (bitwise) equality of mean and covariance.
func sameShape(a, b *Component) bool {
	if len(a.Mu) != len(b.Mu) {
		return false
	}
	for i, v := range a.Mu {
		if v != b.Mu[i] {
			return false
		}
	}
	if a.Sigma == nil || b.Sigma == nil {
		return a.Sigma == b.Sigma
	}
	if a.Sigma.Rows != b.Sigma.Rows || a.Sigma.Cols != b.Sigma.Cols {
		return false
	}
	for i, v := range a.Sigma.Data {
		if v != b.Sigma.Data[i] {
			return false
		}
	}
	return true
}

// DeltaKeep reuses one component of the old prior at a new position
// with updated mixture weight and member count.
type DeltaKeep struct {
	Old, New int
	Weight   float64
	Count    float64
}

// DeltaAdd inserts one full component at a new position.
type DeltaAdd struct {
	New  int
	Comp Component
}

// PriorDelta is the wire object of delta synchronization: everything
// needed to rebuild the prior at ToVersion from the prior at
// FromVersion. Components absent from both Keep and Add were removed.
type PriorDelta struct {
	FromVersion, ToVersion uint64

	// Scalar prior fields always ship — they are cheap and all of them
	// (BaseWeight in particular) move on every rebuild.
	Alpha      float64
	BaseWeight float64
	BaseSigma  float64
	Dim        int

	NumComponents int // len(Components) of the target prior
	Keep          []DeltaKeep
	Add           []DeltaAdd
}

// Diff computes the delta that rebuilds new from old. Components are
// paired by shape fingerprint and verified with exact float equality,
// so a Keep entry is always safe to apply. Diff never fails: in the
// worst case (every component changed) the delta degenerates to Add
// entries for everything — compare WireSize against the full prior
// before shipping it. Diff fingerprints both priors on every call; a
// caller that diffs a published prior many times keeps its
// Fingerprints and calls DiffFingerprinted.
func Diff(old, new *Prior, fromVersion, toVersion uint64) *PriorDelta {
	return DiffFingerprinted(old, new, old.Fingerprints(), new.Fingerprints(), fromVersion, toVersion)
}

// Fingerprints returns each component's Fingerprint, in component order.
func (p *Prior) Fingerprints() []uint64 {
	fps := make([]uint64, len(p.Components))
	for i := range p.Components {
		fps[i] = p.Components[i].Fingerprint()
	}
	return fps
}

// DiffFingerprinted is Diff with both priors' fingerprints precomputed:
// oldFPs and newFPs are old.Fingerprints() and new.Fingerprints(). Every
// pairing is still verified with exact float equality, so the delta
// equals Diff's.
func DiffFingerprinted(old, new *Prior, oldFPs, newFPs []uint64, fromVersion, toVersion uint64) *PriorDelta {
	d := &PriorDelta{
		FromVersion:   fromVersion,
		ToVersion:     toVersion,
		Alpha:         new.Alpha,
		BaseWeight:    new.BaseWeight,
		BaseSigma:     new.BaseSigma,
		Dim:           new.Dim,
		NumComponents: len(new.Components),
	}
	// A mixture has few components, so scanning the old fingerprints is
	// cheaper than indexing them. Each old component is consumed at most
	// once so duplicate shapes pair one-to-one, in old order.
	used := make([]bool, len(old.Components))
	for i := range new.Components {
		nc := &new.Components[i]
		match := -1
		for j, fp := range oldFPs {
			if fp == newFPs[i] && !used[j] && sameShape(&old.Components[j], nc) {
				match = j
				break
			}
		}
		if match >= 0 {
			used[match] = true
			d.Keep = append(d.Keep, DeltaKeep{Old: match, New: i, Weight: nc.Weight, Count: nc.Count})
		} else {
			d.Add = append(d.Add, DeltaAdd{New: i, Comp: *nc})
		}
	}
	return d
}

// WireSize returns the approximate serialized size in bytes, comparable
// with Prior.WireSize: the cost of shipping this delta to one edge.
func (d *PriorDelta) WireSize() int {
	const f64 = 8
	size := 8 * f64 // versions, alpha, base weight, base sigma, dim, count, slice lens
	size += len(d.Keep) * 4 * f64
	for _, a := range d.Add {
		size += f64 * (3 + len(a.Comp.Mu))
		if a.Comp.Sigma != nil {
			size += f64 * len(a.Comp.Sigma.Data)
		}
	}
	return size
}

// Apply rebuilds the target prior from the old prior the delta was
// computed against. Kept components alias the old prior's Mu/Sigma
// slices — priors are immutable once published, so sharing is safe and
// keeps patching allocation-light. The result is validated before being
// returned.
func (d *PriorDelta) Apply(old *Prior) (*Prior, error) {
	if old == nil {
		return nil, fmt.Errorf("dpprior: apply delta: no base prior")
	}
	if old.Dim != d.Dim {
		return nil, fmt.Errorf("dpprior: apply delta: base dim %d, delta dim %d", old.Dim, d.Dim)
	}
	if d.NumComponents < 0 || d.NumComponents > len(d.Keep)+len(d.Add) {
		return nil, fmt.Errorf("dpprior: apply delta: %d components from %d keep + %d add",
			d.NumComponents, len(d.Keep), len(d.Add))
	}
	comps := make([]Component, d.NumComponents)
	filled := make([]bool, d.NumComponents)
	place := func(at int) error {
		if at < 0 || at >= d.NumComponents {
			return fmt.Errorf("dpprior: apply delta: component index %d out of range [0,%d)", at, d.NumComponents)
		}
		if filled[at] {
			return fmt.Errorf("dpprior: apply delta: component %d assigned twice", at)
		}
		filled[at] = true
		return nil
	}
	for _, k := range d.Keep {
		if k.Old < 0 || k.Old >= len(old.Components) {
			return nil, fmt.Errorf("dpprior: apply delta: keep references old component %d of %d",
				k.Old, len(old.Components))
		}
		if err := place(k.New); err != nil {
			return nil, err
		}
		oc := &old.Components[k.Old]
		comps[k.New] = Component{Weight: k.Weight, Mu: oc.Mu, Sigma: oc.Sigma, Count: k.Count}
	}
	for _, a := range d.Add {
		if err := place(a.New); err != nil {
			return nil, err
		}
		comps[a.New] = a.Comp
	}
	for i, ok := range filled {
		if !ok {
			return nil, fmt.Errorf("dpprior: apply delta: component %d never assigned", i)
		}
	}
	p := &Prior{
		Alpha:      d.Alpha,
		Components: comps,
		BaseWeight: d.BaseWeight,
		BaseSigma:  d.BaseSigma,
		Dim:        d.Dim,
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("dpprior: apply delta: %w", err)
	}
	return p, nil
}
