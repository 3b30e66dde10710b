// Package mat provides the dense linear-algebra substrate used throughout
// the drdp library: vectors as []float64, a row-major dense matrix type,
// BLAS-like kernels (dot, axpy, gemv, gemm), and the Cholesky machinery
// needed for multivariate-Gaussian priors and quadratic surrogates.
//
// Shape mismatches are programmer errors and panic with a descriptive
// message, mirroring the Go runtime's slice bounds checks. Numerical
// failures (for example a non-positive-definite matrix handed to Cholesky)
// are reported as errors.
package mat

import (
	"fmt"
	"math"
)

// Vec is a dense vector. It is a plain slice so callers can use the full
// slice toolbox; the functions below treat it as a mathematical vector.
type Vec = []float64

// CloneVec returns a copy of x.
func CloneVec(x Vec) Vec {
	y := make(Vec, len(x))
	copy(y, x)
	return y
}

// Dot returns the inner product of x and y.
func Dot(x, y Vec) float64 {
	checkLen("Dot", len(x), len(y))
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y Vec) {
	checkLen("Axpy", len(x), len(y))
	for i, v := range x {
		y[i] += a * v
	}
}

// Scale computes x *= a in place.
func Scale(a float64, x Vec) {
	for i := range x {
		x[i] *= a
	}
}

// SubVec returns x - y as a new vector.
func SubVec(x, y Vec) Vec {
	return SubVecTo(make(Vec, len(x)), x, y)
}

// SubVecTo writes x - y into dst and returns it.
func SubVecTo(dst, x, y Vec) Vec {
	checkLen("SubVec", len(x), len(y))
	checkLen("SubVec", len(dst), len(x))
	for i, v := range x {
		dst[i] = v - y[i]
	}
	return dst
}

// Norm2 returns the Euclidean norm of x, guarding against overflow.
func Norm2(x Vec) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// Dist2 returns the Euclidean distance between x and y.
func Dist2(x, y Vec) float64 {
	checkLen("Dist2", len(x), len(y))
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the entries of x.
func Sum(x Vec) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty vector.
func Mean(x Vec) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Fill sets every entry of x to v.
func Fill(x Vec, v float64) {
	for i := range x {
		x[i] = v
	}
}

// ArgMax returns the index of the largest entry of x; -1 for empty x.
// Ties resolve to the lowest index.
func ArgMax(x Vec) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// LogSumExp returns log(sum_i exp(x_i)) computed stably.
// It returns -Inf for an empty vector, matching the empty-sum convention.
func LogSumExp(x Vec) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, v := range x {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// Softmax writes the softmax of x into dst (allocating when dst is nil)
// and returns dst. The result is a probability vector.
func Softmax(x, dst Vec) Vec {
	if dst == nil {
		dst = make(Vec, len(x))
	}
	checkLen("Softmax", len(x), len(dst))
	lse := LogSumExp(x)
	for i, v := range x {
		dst[i] = math.Exp(v - lse)
	}
	return dst
}

func checkLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("mat: %s: length mismatch %d != %d", op, a, b))
	}
}
