package opt

import (
	"github.com/drdp/drdp/internal/mat"
)

// LBFGSOptions extends Options with the history length of the limited-
// memory quasi-Newton approximation.
type LBFGSOptions struct {
	Options
	// Memory is the number of (s, y) curvature pairs kept (default 8).
	Memory int
}

// LBFGS minimizes f with the limited-memory BFGS two-loop recursion and
// Armijo backtracking on the quasi-Newton direction (falling back to the
// raw gradient when the direction fails to descend). Markedly faster
// than GD on the ill-conditioned M-step objectives that arise when prior
// components are much stiffer in some directions than the data.
func LBFGS(f Func, theta0 mat.Vec, opts LBFGSOptions) Result {
	o := opts.Options.withDefaults()
	m := opts.Memory
	if m <= 0 {
		m = 8
	}
	n := len(theta0)
	theta := mat.CloneVec(theta0)
	grad := make(mat.Vec, n)
	value := f(theta, grad)

	// Ring buffers of curvature pairs.
	ss := make([]mat.Vec, 0, m)
	ys := make([]mat.Vec, 0, m)
	rhos := make([]float64, 0, m)

	dir := make(mat.Vec, n)
	trial := make(mat.Vec, n)
	newGrad := make(mat.Vec, n)
	alpha := make([]float64, m)
	rejected := 0 // consecutive curvature-pair rejections

	var iter int
	for iter = 0; iter < o.MaxIter; iter++ {
		gnorm := mat.Norm2(grad)
		if gnorm <= o.Tol {
			return Result{Theta: theta, Value: value, Iterations: iter, Converged: true, GradNorm: gnorm}
		}

		// Two-loop recursion: dir = −H·grad.
		copy(dir, grad)
		k := len(ss)
		for i := k - 1; i >= 0; i-- {
			alpha[i] = rhos[i] * mat.Dot(ss[i], dir)
			mat.Axpy(-alpha[i], ys[i], dir)
		}
		if k > 0 {
			// Initial scaling γ = sᵀy / yᵀy of the most recent pair.
			gamma := 1 / (rhos[k-1] * mat.Dot(ys[k-1], ys[k-1]))
			mat.Scale(gamma, dir)
		}
		for i := 0; i < k; i++ {
			beta := rhos[i] * mat.Dot(ys[i], dir)
			mat.Axpy(alpha[i]-beta, ss[i], dir)
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
			return Result{Theta: theta, Value: value, Iterations: iter, Converged: false, GradNorm: gnorm}
		}
		// Heavy backtracking signals a poor quasi-Newton model (stale
		// curvature in a strongly nonlinear region): reset the memory so
		// the next iteration restarts from steepest descent.
		if backtracks >= 8 {
			ss, ys, rhos = ss[:0], ys[:0], rhos[:0]
		}

		newVal := f(trial, newGrad)
		s := mat.SubVec(trial, theta)
		y := mat.SubVec(newGrad, grad)
		sy := mat.Dot(s, y)
		// Keep the pair only when curvature is positive (BFGS condition).
		if sy > 1e-12*mat.Norm2(s)*mat.Norm2(y) {
			if len(ss) == m {
				ss = ss[1:]
				ys = ys[1:]
				rhos = rhos[1:]
			}
			ss = append(ss, s)
			ys = append(ys, y)
			rhos = append(rhos, 1/sy)
			rejected = 0
		} else {
			// Negative curvature along the step: the quadratic model is
			// wrong here. Repeated rejections would freeze the memory on
			// a stale (often tiny) direction, so reset to a steepest-
			// descent restart.
			rejected++
			if rejected >= 2 {
				ss, ys, rhos = ss[:0], ys[:0], rhos[:0]
				rejected = 0
			}
		}
		copy(theta, trial)
		copy(grad, newGrad)
		value = newVal
	}
	return Result{Theta: theta, Value: value, Iterations: iter, Converged: false, GradNorm: mat.Norm2(grad)}
}
