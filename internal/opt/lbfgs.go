package opt

import (
	"github.com/drdp/drdp/internal/mat"
)

// lbfgsMemory is the number of (s, y) curvature pairs LBFGS keeps.
const lbfgsMemory = 8

// LBFGS minimizes f with the limited-memory BFGS two-loop recursion and
// Armijo backtracking on the quasi-Newton direction (falling back to the
// raw gradient when the direction fails to descend). Markedly faster
// than GD on the ill-conditioned M-step objectives that arise when prior
// components are much stiffer in some directions than the data; it is
// the default M-step solver of package core.
//
// Its scratch, the curvature pairs included, is allocated once per call,
// so what a solve allocates does not grow with its iteration count.
func LBFGS(f Func, theta0 mat.Vec, opts Options) Result {
	o := opts.withDefaults()
	const m = lbfgsMemory
	n := len(theta0)
	theta := mat.CloneVec(theta0)
	grad := make(mat.Vec, n)
	value := f(theta, grad)

	// The curvature pairs live in a ring of m+1 (s, y) slots: the k kept
	// pairs, oldest first, are slots head, head+1, … (mod m+1), and the
	// slot after the newest is always free for the next candidate pair,
	// which is computed in place and kept by advancing k (and, when the
	// memory is full, head).
	slots := m + 1
	pairs := make([]float64, 2*slots*n)
	s := func(slot int) mat.Vec { return pairs[2*slot*n : (2*slot+1)*n] }
	y := func(slot int) mat.Vec { return pairs[(2*slot+1)*n : (2*slot+2)*n] }
	rhos := make([]float64, slots)
	head, k := 0, 0
	pair := func(i int) int { return (head + i) % slots } // slot of pair i, 0 = oldest

	dir := make(mat.Vec, n)
	trial := make(mat.Vec, n)
	newGrad := make(mat.Vec, n)
	alpha := make([]float64, m)
	rejected := 0 // consecutive curvature-pair rejections

	var iter int
	for iter = 0; iter < o.MaxIter; iter++ {
		gnorm := mat.Norm2(grad)
		if gnorm <= o.Tol {
			return Result{Theta: theta, Value: value, Iterations: iter, Converged: true}
		}

		// Two-loop recursion: dir = −H·grad.
		copy(dir, grad)
		for i := k - 1; i >= 0; i-- {
			j := pair(i)
			alpha[i] = rhos[j] * mat.Dot(s(j), dir)
			mat.Axpy(-alpha[i], y(j), dir)
		}
		if k > 0 {
			// Initial scaling γ = sᵀy / yᵀy of the most recent pair.
			j := pair(k - 1)
			gamma := 1 / (rhos[j] * mat.Dot(y(j), y(j)))
			mat.Scale(gamma, dir)
		}
		for i := 0; i < k; i++ {
			j := pair(i)
			beta := rhos[j] * mat.Dot(y(j), dir)
			mat.Axpy(alpha[i]-beta, s(j), dir)
		}
		mat.Scale(-1, dir)

		// Descent check; fall back to steepest descent if violated (can
		// happen with stale curvature on non-smooth objectives).
		dd := mat.Dot(dir, grad)
		if dd >= 0 {
			copy(dir, grad)
			mat.Scale(-1, dir)
			dd = -gnorm * gnorm
		}

		// Armijo backtracking along dir.
		const c, shrink = 1e-4, 0.5
		t := 1.0
		var trialVal float64
		accepted := false
		backtracks := 0
		for ls := 0; ls < 50; ls++ {
			copy(trial, theta)
			mat.Axpy(t, dir, trial)
			trialVal = f(trial, nil)
			if trialVal <= value+c*t*dd {
				accepted = true
				break
			}
			t *= shrink
			backtracks++
		}
		if !accepted {
			return Result{Theta: theta, Value: value, Iterations: iter, Converged: false}
		}
		// Heavy backtracking signals a poor quasi-Newton model (stale
		// curvature in a strongly nonlinear region): reset the memory so
		// the next iteration restarts from steepest descent.
		if backtracks >= 8 {
			k = 0
		}

		newVal := f(trial, newGrad)
		next := pair(k)
		sv := mat.SubVecTo(s(next), trial, theta)
		yv := mat.SubVecTo(y(next), newGrad, grad)
		sy := mat.Dot(sv, yv)
		// Keep the pair only when curvature is positive (BFGS condition).
		if sy > 1e-12*mat.Norm2(sv)*mat.Norm2(yv) {
			rhos[next] = 1 / sy
			if k == m {
				head = (head + 1) % slots
			} else {
				k++
			}
			rejected = 0
		} else {
			// Negative curvature along the step: the quadratic model is
			// wrong here. Repeated rejections would freeze the memory on
			// a stale (often tiny) direction, so reset to a steepest-
			// descent restart.
			rejected++
			if rejected >= 2 {
				k = 0
				rejected = 0
			}
		}
		copy(theta, trial)
		copy(grad, newGrad)
		value = newVal
	}
	return Result{Theta: theta, Value: value, Iterations: iter, Converged: false}
}
