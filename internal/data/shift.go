package data

import (
	"fmt"
	"math/rand"

	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/stat"
)

// CovariateShift returns a copy of ds with delta added to every feature
// vector — a mean shift of the test distribution, the canonical stressor
// for the DRO robustness claims.
func CovariateShift(ds *Dataset, delta mat.Vec) (*Dataset, error) {
	if len(delta) != ds.Dim() {
		return nil, fmt.Errorf("data: CovariateShift: delta dim %d, want %d", len(delta), ds.Dim())
	}
	out := ds.Clone()
	for i := 0; i < out.Len(); i++ {
		mat.Axpy(1, delta, out.X.Row(i))
	}
	return out, nil
}

// UniformShift shifts every feature by eps/sqrt(d), producing a shift of
// total Euclidean magnitude eps regardless of dimensionality.
func UniformShift(ds *Dataset, eps float64) *Dataset {
	delta := make(mat.Vec, ds.Dim())
	if ds.Dim() > 0 {
		mat.Fill(delta, eps/mat.Norm2(onesVec(ds.Dim())))
	}
	out, err := CovariateShift(ds, delta)
	if err != nil {
		// Unreachable: delta is constructed with the right dimension.
		panic(err)
	}
	return out
}

// AdversarialShift moves each sample by budget in the direction that
// increases its loss under a linear scorer w — the worst-case-in-the-ball
// perturbation realized, used to validate the Wasserstein certificate
// empirically. For a sample with label y, the loss-increasing direction
// of the margin y·wᵀx is −y·w/‖w‖.
func AdversarialShift(ds *Dataset, w mat.Vec, budget float64) (*Dataset, error) {
	if len(w) != ds.Dim() {
		return nil, fmt.Errorf("data: AdversarialShift: w dim %d, want %d", len(w), ds.Dim())
	}
	if ds.NumClasses != 2 {
		return nil, fmt.Errorf("data: AdversarialShift: dataset is not binary")
	}
	norm := mat.Norm2(w)
	if norm == 0 {
		return ds.Clone(), nil
	}
	out := ds.Clone()
	for i := 0; i < out.Len(); i++ {
		mat.Axpy(-out.Y[i]*budget/norm, w, out.X.Row(i))
	}
	return out, nil
}

// AdversarialShiftLInf moves each sample by the ℓ∞-budget sign attack
// against a linear scorer w: every coordinate shifts by ±budget in the
// loss-increasing direction, the worst case of an ℓ∞-ground Wasserstein
// ball (total ℓ∞ perturbation = budget; margin drop = budget·‖w‖₁).
func AdversarialShiftLInf(ds *Dataset, w mat.Vec, budget float64) (*Dataset, error) {
	if len(w) != ds.Dim() {
		return nil, fmt.Errorf("data: AdversarialShiftLInf: w dim %d, want %d", len(w), ds.Dim())
	}
	if ds.NumClasses != 2 {
		return nil, fmt.Errorf("data: AdversarialShiftLInf: dataset is not binary")
	}
	out := ds.Clone()
	for i := 0; i < out.Len(); i++ {
		row := out.X.Row(i)
		for j, wj := range w {
			switch {
			case wj > 0:
				row[j] -= out.Y[i] * budget
			case wj < 0:
				row[j] += out.Y[i] * budget
			}
		}
	}
	return out, nil
}

// DirichletPartition splits ds across parts devices with label-skewed
// proportions drawn from a symmetric Dirichlet(alpha): small alpha gives
// highly non-IID per-device class mixes, large alpha approaches IID.
// Every device receives at least one sample when possible.
func DirichletPartition(ds *Dataset, parts int, alpha float64, rng *rand.Rand) ([]*Dataset, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("data: DirichletPartition: parts=%d", parts)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("data: DirichletPartition: alpha=%g must be positive", alpha)
	}
	// Group sample indices by class (binary labels map −1→0, +1→1).
	classOf := func(y float64) int {
		if ds.NumClasses == 2 {
			if y > 0 {
				return 1
			}
			return 0
		}
		return int(y)
	}
	byClass := map[int][]int{}
	for i, y := range ds.Y {
		c := classOf(y)
		byClass[c] = append(byClass[c], i)
	}
	assignments := make([][]int, parts)
	for _, idx := range byClass {
		// Per-class device proportions.
		props := stat.DirichletSym(rng, alpha, parts)
		// Convert to counts by largest remainder.
		counts := apportion(props, len(idx))
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		pos := 0
		for p, c := range counts {
			assignments[p] = append(assignments[p], idx[pos:pos+c]...)
			pos += c
		}
	}
	out := make([]*Dataset, parts)
	for p := range out {
		if len(assignments[p]) == 0 {
			// Guarantee non-emptiness by stealing one sample from the
			// largest device.
			big, bigLen := 0, 0
			for q, a := range assignments {
				if len(a) > bigLen {
					big, bigLen = q, len(a)
				}
			}
			if bigLen > 1 {
				last := assignments[big][bigLen-1]
				assignments[big] = assignments[big][:bigLen-1]
				assignments[p] = append(assignments[p], last)
			}
		}
		out[p] = ds.Subset(assignments[p])
	}
	return out, nil
}

// apportion converts proportions to integer counts summing to total using
// the largest-remainder method.
func apportion(props []float64, total int) []int {
	counts := make([]int, len(props))
	rem := make([]float64, len(props))
	used := 0
	for i, p := range props {
		exact := p * float64(total)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		used += counts[i]
	}
	for used < total {
		best := 0
		for i := 1; i < len(rem); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		used++
	}
	return counts
}

func onesVec(n int) mat.Vec {
	v := make(mat.Vec, n)
	mat.Fill(v, 1)
	return v
}
