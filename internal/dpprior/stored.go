package dpprior

import (
	"errors"
	"fmt"

	"github.com/drdp/drdp/internal/mat"
)

// StoredTask is a task posterior in the compact form the cloud's task
// store keeps in memory: μ, then the upper triangle of Σ row by row, in
// one allocation of d + d(d+1)/2 floats — 170 at d = 17, where the
// dense form takes 17 + 289 in two. Σ is symmetric (Validate checks it
// on the dense upload, to 1e-8·(1+max|Σ|)), so its upper triangle
// determines it: PackTask keeps that triangle, and every read mirrors
// it.
//
// A StoredTask is immutable once packed; copies share its storage.
type StoredTask struct {
	packed []float64 // μ (dim floats), then Σ's upper triangle
	dim    int
	N      int // training samples behind this posterior
}

// PackTask returns t in packed form. It fails unless t has a non-empty
// mean and a d×d covariance for its d-dimensional mean.
func PackTask(t TaskPosterior) (StoredTask, error) {
	d := len(t.Mu)
	if d == 0 {
		return StoredTask{}, errors.New("dpprior: pack: empty mean")
	}
	if !t.squareCov() || len(t.Sigma.Data) != d*d {
		return StoredTask{}, fmt.Errorf("dpprior: pack: covariance is not %dx%d", d, d)
	}
	s := StoredTask{packed: make([]float64, d+d*(d+1)/2), dim: d, N: t.N}
	copy(s.packed, t.Mu)
	tri := s.packed[d:]
	for i := 0; i < d; i++ {
		tri = tri[copy(tri, t.Sigma.Data[i*d+i:(i+1)*d]):]
	}
	return s, nil
}

// Dim returns the task's parameter dimension d.
func (s StoredTask) Dim() int { return s.dim }

// Mu returns the posterior mean, a view into the task's storage that
// callers must not modify.
func (s StoredTask) Mu() mat.Vec { return s.packed[:s.dim:s.dim] }

// Task returns the task in dense form, in fresh storage.
func (s StoredTask) Task() TaskPosterior {
	var t TaskPosterior
	s.UnpackInto(&t)
	return t
}

// UnpackInto writes the task in dense form into t, reusing t's mean and
// covariance storage when it is large enough — the encoders unpack every
// stored task into one such buffer.
func (s StoredTask) UnpackInto(t *TaskPosterior) {
	d := s.dim
	if cap(t.Mu) < d {
		t.Mu = make(mat.Vec, d)
	}
	t.Mu = t.Mu[:d]
	copy(t.Mu, s.packed[:d])
	if t.Sigma == nil {
		t.Sigma = new(mat.Dense)
	}
	if cap(t.Sigma.Data) < d*d {
		t.Sigma.Data = make([]float64, d*d)
	}
	t.Sigma.Rows, t.Sigma.Cols, t.Sigma.Data = d, d, t.Sigma.Data[:d*d]
	data := t.Sigma.Data
	k := d
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			data[i*d+j] = s.packed[k]
			data[j*d+i] = s.packed[k]
			k++
		}
	}
	t.N = s.N
}

// CovAt returns Σ[i][j], read from the upper triangle.
func (s StoredTask) CovAt(i, j int) float64 {
	return s.packed[s.dim+triIndex(s.dim, min(i, j), max(i, j))]
}

// Fingerprint is the Fingerprint of the task in dense form.
func (s StoredTask) Fingerprint() uint64 {
	d := s.dim
	f := newFingerprint(s.Mu())
	tri := s.packed[d:]
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			f.float(tri[triIndex(d, min(i, j), max(i, j))])
		}
	}
	return f.sum(s.N)
}

// WireSize is the WireSize of the task in dense form.
func (s StoredTask) WireSize() int {
	return 8*(s.dim+s.dim*s.dim) + 16
}

// triIndex is the offset of entry (i, j), i ≤ j, in the row-major upper
// triangle of a d×d matrix.
func triIndex(d, i, j int) int {
	return i*d - i*(i-1)/2 + (j - i)
}

// Task is a task posterior in either form the prior builder and the
// admission judge read: dense, as uploaded (TaskPosterior), or packed,
// as stored (StoredTask). They read only what the methods below give:
// the mean, the sample count, the covariance trace, and w·Σ added into a
// dense accumulator.
type Task interface {
	TaskPosterior | StoredTask
	mean() mat.Vec
	count() int
	// covShape reports whether Σ is d×d for the d-dimensional mean.
	covShape() bool
	// covTrace returns tr Σ and Σ's row count (0 without a covariance).
	covTrace() (trace float64, rows int)
	// addCov adds a·Σ into dst, a d×d matrix.
	addCov(a float64, dst *mat.Dense)
	// dense returns the task as a TaskPosterior: itself, or a copy.
	dense() TaskPosterior
}

func (t TaskPosterior) mean() mat.Vec { return t.Mu }
func (t TaskPosterior) count() int    { return t.N }
func (t TaskPosterior) covShape() bool {
	return t.squareCov()
}
func (t TaskPosterior) covTrace() (float64, int) {
	if t.Sigma == nil || t.Sigma.Rows == 0 {
		return 0, 0
	}
	return t.Sigma.Trace(), t.Sigma.Rows
}
func (t TaskPosterior) addCov(a float64, dst *mat.Dense) { dst.AddScaled(a, t.Sigma) }
func (t TaskPosterior) dense() TaskPosterior             { return t }

// squareCov reports whether Σ is d×d for the d-dimensional mean.
func (t *TaskPosterior) squareCov() bool {
	d := len(t.Mu)
	return t.Sigma != nil && t.Sigma.Rows == d && t.Sigma.Cols == d
}

func (s StoredTask) mean() mat.Vec  { return s.Mu() }
func (s StoredTask) count() int     { return s.N }
func (s StoredTask) covShape() bool { return true }

// covTrace sums the diagonal in row order, as mat.Dense.Trace does.
func (s StoredTask) covTrace() (float64, int) {
	d := s.dim
	var tr float64
	for i := 0; i < d; i++ {
		tr += s.packed[d+triIndex(d, i, i)]
	}
	return tr, d
}

// addCov adds a·Σ entry by entry, as mat.Dense.AddScaled does, so a
// symmetric Σ accumulates to the same bits in either form. It walks dst
// row by row: below the diagonal a row reads its column of the upper
// triangle, from the diagonal on it reads the triangle's own row.
func (s StoredTask) addCov(a float64, dst *mat.Dense) {
	d := s.dim
	tri := s.packed[d:]
	for i := 0; i < d; i++ {
		row := dst.Data[i*d : (i+1)*d]
		k := i // triIndex(d, 0, i)
		for j := 0; j < i; j++ {
			row[j] += a * tri[k]
			k += d - 1 - j
		}
		for j, v := range tri[k : k+d-i] {
			row[i+j] += a * v
		}
	}
}

func (s StoredTask) dense() TaskPosterior { return s.Task() }
