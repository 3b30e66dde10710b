package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPSD reports that a matrix handed to Cholesky was not (numerically)
// symmetric positive definite even after jitter escalation.
var ErrNotPSD = errors.New("mat: matrix is not positive definite")

// ErrNotFinite reports that a matrix handed to Cholesky contained NaN or
// ±Inf entries. No amount of diagonal jitter repairs this, so jitter
// escalation fails fast on it.
var ErrNotFinite = errors.New("mat: matrix has non-finite entries")

// Cholesky holds a lower-triangular factor L with A = L Lᵀ.
type Cholesky struct {
	L *Dense // lower triangular, upper part zero
}

// NewCholesky factors the symmetric positive-definite matrix a.
// It fails with ErrNotPSD when a is not numerically PD — including when
// a pivot is positive but below working precision relative to the
// matrix scale (n·eps·max diag), where the factor would be dominated by
// rounding noise and solves would silently amplify it — and with
// ErrNotFinite when a contains NaN or ±Inf entries.
func NewCholesky(a *Dense) (*Cholesky, error) {
	a.checkSquare("Cholesky")
	n := a.Rows
	var maxDiag float64
	for i, v := range a.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: entry (%d,%d) is %g", ErrNotFinite, i/a.Cols, i%a.Cols, v)
		}
	}
	for i := 0; i < n; i++ {
		if d := a.Data[i*n+i]; d > maxDiag {
			maxDiag = d
		}
	}
	// Relative pivot floor: a rank-deficient matrix rarely produces an
	// exactly-zero pivot in floating point — cancellation leaves a tiny
	// residual of either sign at the roundoff scale of the entries that
	// cancelled. Accepting such a pivot yields 1/sqrt(residual) factors
	// of pure noise.
	const eps = 0x1p-52
	tol := float64(n) * eps * maxDiag
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		var d float64
		for k := 0; k < j; k++ {
			v := l.Data[j*n+k]
			d += v * v
		}
		d = a.Data[j*n+j] - d
		if d <= tol || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d is %g (tolerance %g)", ErrNotPSD, j, d, tol)
		}
		ljj := math.Sqrt(d)
		l.Data[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += l.Data[i*n+k] * l.Data[j*n+k]
			}
			l.Data[i*n+j] = (a.Data[i*n+j] - s) / ljj
		}
	}
	return &Cholesky{L: l}, nil
}

// NewCholeskyJitter factors a, escalating a diagonal jitter from jitter0
// by factors of 10 up to maxTries times until the factorization succeeds.
// It returns the factor and the jitter that was finally applied. A matrix
// with non-finite entries fails immediately with ErrNotFinite — jitter
// only repairs rank deficiency, not NaN/Inf poison.
func NewCholeskyJitter(a *Dense, jitter0 float64, maxTries int) (*Cholesky, float64, error) {
	if jitter0 <= 0 {
		jitter0 = 1e-10
	}
	ch, err := NewCholesky(a)
	if err == nil {
		return ch, 0, nil
	}
	if errors.Is(err, ErrNotFinite) {
		return nil, 0, err
	}
	jitter := jitter0
	for try := 0; try < maxTries; try++ {
		aj := a.Clone()
		for i := 0; i < aj.Rows; i++ {
			aj.Data[i*aj.Cols+i] += jitter
		}
		if ch, err := NewCholesky(aj); err == nil {
			return ch, jitter, nil
		}
		jitter *= 10
	}
	return nil, 0, fmt.Errorf("cholesky with jitter up to %g: %w", jitter/10, ErrNotPSD)
}

// SolveVec solves A x = b given A = L Lᵀ, returning x.
func (c *Cholesky) SolveVec(b Vec) Vec {
	n := c.L.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: Cholesky.SolveVec: length %d, want %d", len(b), n))
	}
	// Forward substitution: L y = b.
	y := make(Vec, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.L.Data[i*n : i*n+i]
		for k, v := range row {
			s -= v * y[k]
		}
		y[i] = s / c.L.Data[i*n+i]
	}
	// Back substitution: Lᵀ x = y.
	x := make(Vec, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.L.Data[k*n+i] * x[k]
		}
		x[i] = s / c.L.Data[i*n+i]
	}
	return x
}

// Solve solves A X = B column-by-column.
func (c *Cholesky) Solve(b *Dense) *Dense {
	if b.Rows != c.L.Rows {
		panic(fmt.Sprintf("mat: Cholesky.Solve: got %d rows, want %d", b.Rows, c.L.Rows))
	}
	out := NewDense(b.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		x := c.SolveVec(b.Col(j))
		for i, v := range x {
			out.Data[i*out.Cols+j] = v
		}
	}
	return out
}

// Inverse returns A⁻¹.
func (c *Cholesky) Inverse() *Dense {
	return c.Solve(Eye(c.L.Rows))
}

// LogDet returns log det A = 2 Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	n := c.L.Rows
	var s float64
	for i := 0; i < n; i++ {
		s += math.Log(c.L.Data[i*n+i])
	}
	return 2 * s
}

// MulVecL returns L x, used to sample from N(mu, A) as mu + L z.
func (c *Cholesky) MulVecL(x Vec) Vec {
	n := c.L.Rows
	if len(x) != n {
		panic(fmt.Sprintf("mat: Cholesky.MulVecL: length %d, want %d", len(x), n))
	}
	y := make(Vec, n)
	for i := 0; i < n; i++ {
		var s float64
		row := c.L.Data[i*n : i*n+i+1]
		for k, v := range row {
			s += v * x[k]
		}
		y[i] = s
	}
	return y
}

// SolveLInPlace solves L y = b (forward substitution only), overwriting
// b with y. The squared norm of y is the Mahalanobis quadratic
// bᵀA⁻¹b, which the Gaussian log-density uses without completing the
// full solve. Entry i of b is read before it is written and entries
// k < i already hold y_k, so the arithmetic is that of a substitution
// into a separate vector, operation for operation.
func (c *Cholesky) SolveLInPlace(b Vec) {
	n := c.L.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: Cholesky.SolveLInPlace: length %d, want %d", len(b), n))
	}
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.L.Data[i*n : i*n+i]
		for k, v := range row {
			s -= v * b[k]
		}
		b[i] = s / c.L.Data[i*n+i]
	}
}
