// Package data is drdp's synthetic data engine. Real IoT traces and image
// corpora are not available offline, so the package provides parametric
// generators that expose exactly the dials the paper's claims depend on:
// local sample scarcity, relatedness between the edge task and the cloud's
// task family, covariate/label shift between train and test, and non-IID
// heterogeneity across devices. See DESIGN.md ("Substitutions") for the
// mapping from the paper's data to these generators.
package data

import (
	"fmt"
	"math/rand"

	"github.com/drdp/drdp/internal/mat"
)

// Dataset is a supervised sample: row-major features plus labels.
// Label conventions follow package model: regression targets directly,
// binary labels as ±1 (NumClasses == 2), multiclass labels as class
// indices (NumClasses >= 3). NumClasses == 0 marks regression.
type Dataset struct {
	X          *mat.Dense
	Y          []float64
	NumClasses int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows }

// Dim returns the feature dimensionality.
func (d *Dataset) Dim() int { return d.X.Cols }

// Validate reports structural problems.
func (d *Dataset) Validate() error {
	if d.X == nil {
		return fmt.Errorf("data: nil feature matrix")
	}
	if d.X.Rows != len(d.Y) {
		return fmt.Errorf("data: %d rows but %d labels", d.X.Rows, len(d.Y))
	}
	if d.NumClasses < 0 {
		return fmt.Errorf("data: negative class count %d", d.NumClasses)
	}
	if d.NumClasses >= 3 {
		for i, y := range d.Y {
			if y != float64(int(y)) || y < 0 || int(y) >= d.NumClasses {
				return fmt.Errorf("data: label %g at row %d invalid for %d classes", y, i, d.NumClasses)
			}
		}
	}
	if d.NumClasses == 2 {
		for i, y := range d.Y {
			if y != 1 && y != -1 {
				return fmt.Errorf("data: binary label %g at row %d, want ±1", y, i)
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	return &Dataset{
		X:          d.X.Clone(),
		Y:          append([]float64(nil), d.Y...),
		NumClasses: d.NumClasses,
	}
}

// Shuffle permutes samples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	n := d.Len()
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ri, rj := d.X.Row(i), d.X.Row(j)
		for k := range ri {
			ri[k], rj[k] = rj[k], ri[k]
		}
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	}
}

// Subset returns a dataset view copy of the given row indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		X:          mat.NewDense(len(idx), d.Dim()),
		Y:          make([]float64, len(idx)),
		NumClasses: d.NumClasses,
	}
	for i, j := range idx {
		copy(out.X.Row(i), d.X.Row(j))
		out.Y[i] = d.Y[j]
	}
	return out
}

// Concat appends other's samples to a copy of d. Dimensions and label
// conventions must match.
func (d *Dataset) Concat(other *Dataset) (*Dataset, error) {
	if d.Dim() != other.Dim() {
		return nil, fmt.Errorf("data: Concat: dims %d vs %d", d.Dim(), other.Dim())
	}
	if d.NumClasses != other.NumClasses {
		return nil, fmt.Errorf("data: Concat: class counts %d vs %d", d.NumClasses, other.NumClasses)
	}
	out := &Dataset{
		X:          mat.NewDense(d.Len()+other.Len(), d.Dim()),
		Y:          make([]float64, 0, d.Len()+other.Len()),
		NumClasses: d.NumClasses,
	}
	for i := 0; i < d.Len(); i++ {
		copy(out.X.Row(i), d.X.Row(i))
	}
	for i := 0; i < other.Len(); i++ {
		copy(out.X.Row(d.Len()+i), other.X.Row(i))
	}
	out.Y = append(out.Y, d.Y...)
	out.Y = append(out.Y, other.Y...)
	return out, nil
}

// ClassCounts returns a histogram of labels for classification datasets.
func (d *Dataset) ClassCounts() map[int]int {
	out := make(map[int]int)
	for _, y := range d.Y {
		out[int(y)]++
	}
	return out
}
