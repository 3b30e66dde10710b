package opt

import (
	"github.com/drdp/drdp/internal/mat"
)

// lbfgsMemory is the number of (s, y) curvature pairs LBFGS keeps.
const lbfgsMemory = 8

// Memory is LBFGS's curvature memory, the last lbfgsMemory (s, y) pairs,
// together with the solver's scratch. A caller that solves a run of
// closely related problems passes one Memory to every solve, so each
// opens with the inverse-Hessian model the previous one built instead of
// a unit step along −∇; Reset empties it between unrelated runs. The
// zero value is an empty memory, sized by its first solve. A Memory
// serves one solve at a time.
type Memory struct {
	n int // parameter count the buffers are sized for

	// The pairs live in a ring of m+1 (s, y) slots: the k kept pairs,
	// oldest first, are slots head, head+1, … (mod m+1), and the slot
	// after the newest is always free for the next candidate pair, which
	// is computed in place and kept by advancing k (and, when the memory
	// is full, head).
	pairs   []float64
	rhos    []float64
	head, k int

	grad, dir, trial, newGrad mat.Vec
	alpha                     []float64
}

// Reset forgets every curvature pair; the next solve starts cold.
func (m *Memory) Reset() { m.head, m.k = 0, 0 }

// size readies the memory for n parameters, resetting it when n changed.
func (m *Memory) size(n int) {
	if m.n == n && m.pairs != nil {
		return
	}
	const slots = lbfgsMemory + 1
	*m = Memory{
		n:       n,
		pairs:   make([]float64, 2*slots*n),
		rhos:    make([]float64, slots),
		grad:    make(mat.Vec, n),
		dir:     make(mat.Vec, n),
		trial:   make(mat.Vec, n),
		newGrad: make(mat.Vec, n),
		alpha:   make([]float64, lbfgsMemory),
	}
}

func (m *Memory) s(slot int) mat.Vec { return m.pairs[2*slot*m.n : (2*slot+1)*m.n] }
func (m *Memory) y(slot int) mat.Vec { return m.pairs[(2*slot+1)*m.n : (2*slot+2)*m.n] }

// pair returns the slot of pair i, 0 being the oldest.
func (m *Memory) pair(i int) int { return (m.head + i) % (lbfgsMemory + 1) }

// LBFGS minimizes f with the limited-memory BFGS two-loop recursion and
// Armijo backtracking on the quasi-Newton direction (falling back to the
// raw gradient when the direction fails to descend). Markedly faster
// than GD on the ill-conditioned M-step objectives that arise when prior
// components are much stiffer in some directions than the data; it is
// the default M-step solver of package core.
//
// mem carries the curvature pairs and scratch: nil, or a fresh Memory,
// solves cold; a Memory a previous solve left warm opens this one with
// that solve's curvature. Package core keeps one per EM run, because
// consecutive M-step surrogates share their data term and differ only in
// the prior's responsibilities. With opts.Forcing > 0 the solve stops at
// ‖∇‖ ≤ max(Tol, Forcing·‖∇₀‖) (an inexact-Newton forcing rule); every
// accepted step still passes the Armijo test, so the result never has a
// higher value than theta0.
//
// A warm solve allocates only the returned Theta, and no solve allocates
// more as its iteration count grows.
func LBFGS(f Func, theta0 mat.Vec, opts Options, mem *Memory) Result {
	o := opts.withDefaults()
	if mem == nil {
		mem = new(Memory)
	}
	n := len(theta0)
	mem.size(n)
	const m = lbfgsMemory
	theta := mat.CloneVec(theta0)
	grad, dir, trial, newGrad, alpha := mem.grad, mem.dir, mem.trial, mem.newGrad, mem.alpha
	value := f(theta, grad)
	tol := o.Tol
	if o.Forcing > 0 {
		tol = max(tol, o.Forcing*mat.Norm2(grad))
	}
	rejected := 0 // consecutive curvature-pair rejections

	var iter int
	for iter = 0; iter < o.MaxIter; iter++ {
		gnorm := mat.Norm2(grad)
		if gnorm <= tol {
			return Result{Theta: theta, Value: value, Iterations: iter, Converged: true}
		}

		// Two-loop recursion: dir = −H·grad.
		copy(dir, grad)
		for i := mem.k - 1; i >= 0; i-- {
			j := mem.pair(i)
			alpha[i] = mem.rhos[j] * mat.Dot(mem.s(j), dir)
			mat.Axpy(-alpha[i], mem.y(j), dir)
		}
		if mem.k > 0 {
			// Initial scaling γ = sᵀy / yᵀy of the most recent pair.
			j := mem.pair(mem.k - 1)
			gamma := 1 / (mem.rhos[j] * mat.Dot(mem.y(j), mem.y(j)))
			mat.Scale(gamma, dir)
		}
		for i := 0; i < mem.k; i++ {
			j := mem.pair(i)
			beta := mem.rhos[j] * mat.Dot(mem.y(j), dir)
			mat.Axpy(alpha[i]-beta, mem.s(j), dir)
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
			mem.Reset()
		}

		newVal := f(trial, newGrad)
		next := mem.pair(mem.k)
		sv := mat.SubVecTo(mem.s(next), trial, theta)
		yv := mat.SubVecTo(mem.y(next), newGrad, grad)
		sy := mat.Dot(sv, yv)
		// Keep the pair only when curvature is positive (BFGS condition).
		if sy > 1e-12*mat.Norm2(sv)*mat.Norm2(yv) {
			mem.rhos[next] = 1 / sy
			if mem.k == m {
				mem.head = (mem.head + 1) % (m + 1)
			} else {
				mem.k++
			}
			rejected = 0
		} else {
			// Negative curvature along the step: the quadratic model is
			// wrong here. Repeated rejections would freeze the memory on
			// a stale (often tiny) direction, so reset to a steepest-
			// descent restart.
			rejected++
			if rejected >= 2 {
				mem.Reset()
				rejected = 0
			}
		}
		copy(theta, trial)
		copy(grad, newGrad)
		value = newVal
	}
	return Result{Theta: theta, Value: value, Iterations: iter, Converged: false}
}
