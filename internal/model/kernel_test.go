package model

import (
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"github.com/drdp/drdp/internal/mat"
)

// refPrec is the working precision of the math/big reference: far past
// float64's 53 bits, so the reference's own error never counts as ulps.
const refPrec = 128

func bigOf(v float64) *big.Float { return new(big.Float).SetPrec(refPrec).SetFloat64(v) }

// refRecip[k] is 1/k, so a series term costs multiplications only.
var refRecip = func() []*big.Float {
	recip := make([]*big.Float, 128)
	for k := range recip {
		recip[k] = new(big.Float).SetPrec(refPrec).Quo(bigOf(1), bigOf(float64(k)))
	}
	return recip
}()

// refTables holds exp(−j/64) for j = 0…64·41 and log(1 + j/64) for
// j = 0…64, so a reference evaluation is a short series.
type refTables struct {
	exp, log []*big.Float
}

var refTab = sync.OnceValue(func() refTables {
	var tab refTables
	r := newRef()
	step := r.expSeries(new(big.Float), 1.0/64)
	tab.exp = []*big.Float{bigOf(1)}
	for j := 1; j <= 64*41; j++ {
		tab.exp = append(tab.exp, new(big.Float).SetPrec(refPrec).Mul(tab.exp[j-1], step))
	}
	for j := 0; j <= 64; j++ {
		c := float64(j) / 64
		u := new(big.Float).SetPrec(refPrec).Quo(bigOf(c), bigOf(2+c))
		tab.log = append(tab.log, r.atanh2(new(big.Float), u))
	}
	return tab
})

// ref evaluates the reference functions in its own scratch; one per
// goroutine.
type ref struct {
	x, u, u2, pow, term *big.Float
}

func newRef() *ref {
	return &ref{bigOf(0), bigOf(0), bigOf(0), bigOf(0), bigOf(0)}
}

// expSeries sets dst to exp(−r) by its Taylor series, for 0 ≤ r ≤ 1/64
// once the tables exist.
func (f *ref) expSeries(dst *big.Float, r float64) *big.Float {
	dst.SetPrec(refPrec).SetFloat64(1)
	f.x.SetFloat64(r)
	f.term.SetFloat64(1)
	for k := 1; ; k++ {
		f.term.Mul(f.term, f.x)
		if k < len(refRecip) {
			f.term.Mul(f.term, refRecip[k])
		} else {
			f.term.Quo(f.term, bigOf(float64(k)))
		}
		f.term.Neg(f.term)
		if f.term.Sign() == 0 || f.term.MantExp(nil) < dst.MantExp(nil)-refPrec {
			return dst
		}
		dst.Add(dst, f.term)
	}
}

// atanh2 sets dst to 2·atanh(u) = log((1+u)/(1−u)), for 0 ≤ u < 1.
func (f *ref) atanh2(dst, u *big.Float) *big.Float {
	dst.SetPrec(refPrec).Set(u)
	f.u2.Mul(u, u)
	f.pow.Set(u)
	for k := 3; ; k += 2 {
		f.pow.Mul(f.pow, f.u2)
		if k < len(refRecip) {
			f.term.Mul(f.pow, refRecip[k])
		} else {
			f.term.Quo(f.pow, bigOf(float64(k)))
		}
		if f.term.Sign() == 0 || f.term.MantExp(nil) < dst.MantExp(nil)-refPrec {
			return dst.Add(dst, dst)
		}
		dst.Add(dst, f.term)
	}
}

// expNeg sets dst to exp(−a) for a in [0, 41): a − j/64 is exact in
// float64, and exp(−j/64) comes from the table.
func (f *ref) expNeg(dst *big.Float, a float64) *big.Float {
	j := int(a * 64)
	f.expSeries(dst, a-float64(j)/64)
	return dst.Mul(dst, refTab().exp[j])
}

// log1p sets dst to log(1 + t) for t in [0, 1]: log(1 + j/64) from the
// table plus 2·atanh((t − j/64)/(2 + t + j/64)).
func (f *ref) log1p(dst, t *big.Float) *big.Float {
	tf, _ := t.Float64()
	j := int(tf * 64)
	c := float64(j) / 64
	f.x.SetFloat64(c)
	f.u.Sub(t, f.x)
	f.x.Add(f.x, t)
	f.term.SetFloat64(2)
	f.x.Add(f.x, f.term)
	f.u.Quo(f.u, f.x)
	f.atanh2(dst, f.u)
	return dst.Add(dst, refTab().log[j])
}

// lossSlope sets loss and slope to the exact max(−m, 0) + log1p(t) and
// σ(−m) = t/(1+t) for m > 0, 1/(1+t) otherwise, with t = exp(−|m|)
// exact (t < 0) or the given float64 t.
func (f *ref) lossSlope(loss, slope *big.Float, m, t float64) {
	tb := new(big.Float).SetPrec(refPrec)
	if t < 0 {
		f.expNeg(tb, math.Abs(m))
	} else {
		tb.SetFloat64(t)
	}
	f.log1p(loss, tb)
	if m <= 0 {
		loss.Sub(loss, f.x.SetFloat64(m))
	}
	slope.SetPrec(refPrec).SetFloat64(1)
	slope.Add(slope, tb)
	if m > 0 {
		slope.Quo(tb, slope)
	} else {
		slope.Quo(f.x.SetFloat64(1), slope)
	}
}

// ulps returns |got − ref| in units of the last place of ref's float64
// binade.
func ulps(got float64, ref *big.Float) float64 {
	if ref.Sign() == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	diff := new(big.Float).SetPrec(refPrec).Sub(bigOf(got), ref)
	diff.Abs(diff)
	e := ref.MantExp(nil)
	f, _ := diff.SetMantExp(diff, 53-e).Float64()
	return f
}

// kernel returns the loss, slope and t the logistic sweep computes at
// each margin m: LossesSweep with w = 1, b = 0, y = 1 at the feature
// x = m (y = −1 at x = 0 for m = −0), the slope read from the memo as
// WeightedGradSweep reads it.
func kernel(ms []float64) (loss, slopes, ts []float64) {
	l := Logistic{Dim: 1}
	x := mat.NewDense(len(ms), 1)
	y := make([]float64, len(ms))
	for i, m := range ms {
		x.Data[i], y[i] = m, 1
		if m == 0 && math.Signbit(m) {
			x.Data[i], y[i] = 0, -1
		}
	}
	memo := make([]float64, SweepMemo*len(ms))
	loss = l.LossesSweep(mat.Vec{1, 0}, x, y, nil, memo)
	slopes, ts = make([]float64, len(ms)), make([]float64, len(ms))
	for i := range ms {
		ts[i] = memo[SweepMemo*i+1]
		slopes[i] = slope(memo[SweepMemo*i], ts[i])
	}
	return loss, slopes, ts
}

// worst tracks the largest error seen and where.
type worst struct{ ulps, at float64 }

func (w *worst) see(ulps, at float64) {
	if ulps > w.ulps {
		w.ulps, w.at = ulps, at
	}
}

// TestLogisticKernelAccuracy measures the kernel against a math/big
// reference over 10⁶ margins drawn uniformly from [−40, 40]. Given the
// t = math.Exp(−|m|) it computed, the loss is within 1 ulp of
// max(−m, 0) + log1p(t) and the slope within 2 ulps of σ(−m); and
// log1pUnit is within 1 ulp over 2·10⁵ t drawn uniformly from [0, 1].
// Against the exact logloss the kernel also inherits math.Exp's own
// error (up to 1.6 ulp on amd64), as log1p(exp(−m)) did: on every tenth
// margin its loss and slope are at most one float further from the
// exact values than that formula's.
func TestLogisticKernelAccuracy(t *testing.T) {
	const margins, units, workers = 1_000_000, 200_000, 2
	refTab()
	type result struct {
		loss, slope, unit                      worst // given t
		exact, exactSlope, twoExp, twoExpSlope worst // against the exact logloss
		excess, excessSlope                    worst // kernel's exact error minus log1p(exp(−m))'s
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r result
			f := newRef()
			refLoss, refSlope := new(big.Float), new(big.Float)
			rng := rand.New(rand.NewSource(int64(31 + w)))
			ms := make([]float64, margins/workers)
			for i := range ms {
				ms[i] = 80*rng.Float64() - 40
			}
			loss, slopes, ts := kernel(ms)
			for i, m := range ms {
				f.lossSlope(refLoss, refSlope, m, ts[i])
				r.loss.see(ulps(loss[i], refLoss), m)
				r.slope.see(ulps(slopes[i], refSlope), m)
				if i%10 != 0 {
					continue
				}
				f.lossSlope(refLoss, refSlope, m, -1)
				e := math.Exp(-m)
				oldLoss, oldSlope := math.Log1p(e), e/(1+e)
				if m < 0 {
					oldSlope = 1 / (1 + math.Exp(m))
				}
				newUlps, newSlopeUlps := ulps(loss[i], refLoss), ulps(slopes[i], refSlope)
				oldUlps, oldSlopeUlps := ulps(oldLoss, refLoss), ulps(oldSlope, refSlope)
				r.exact.see(newUlps, m)
				r.exactSlope.see(newSlopeUlps, m)
				r.twoExp.see(oldUlps, m)
				r.twoExpSlope.see(oldSlopeUlps, m)
				r.excess.see(newUlps-oldUlps, m)
				r.excessSlope.see(newSlopeUlps-oldSlopeUlps, m)
			}
			u := new(big.Float)
			for range units / workers {
				v := rng.Float64()
				r.unit.see(ulps(log1pUnit(v), f.log1p(u, bigOf(v))), v)
			}
			results[w] = r
		}()
	}
	wg.Wait()
	var r result
	for _, w := range results {
		r.loss.see(w.loss.ulps, w.loss.at)
		r.slope.see(w.slope.ulps, w.slope.at)
		r.unit.see(w.unit.ulps, w.unit.at)
		r.exact.see(w.exact.ulps, w.exact.at)
		r.exactSlope.see(w.exactSlope.ulps, w.exactSlope.at)
		r.twoExp.see(w.twoExp.ulps, w.twoExp.at)
		r.twoExpSlope.see(w.twoExpSlope.ulps, w.twoExpSlope.at)
		r.excess.see(w.excess.ulps, w.excess.at)
		r.excessSlope.see(w.excessSlope.ulps, w.excessSlope.at)
	}
	t.Logf("given t: loss %.3f ulp (m = %v), slope %.3f ulp (m = %v); log1pUnit %.3f ulp (t = %v)",
		r.loss.ulps, r.loss.at, r.slope.ulps, r.slope.at, r.unit.ulps, r.unit.at)
	t.Logf("exact: loss %.3f ulp, slope %.3f ulp; log1p(exp(−m)) %.3f and %.3f ulp",
		r.exact.ulps, r.exactSlope.ulps, r.twoExp.ulps, r.twoExpSlope.ulps)
	if r.loss.ulps > 1 {
		t.Errorf("loss off by %.3f ulp at m = %v", r.loss.ulps, r.loss.at)
	}
	if r.slope.ulps > 2 {
		t.Errorf("slope off by %.3f ulp at m = %v", r.slope.ulps, r.slope.at)
	}
	if r.unit.ulps > 1 {
		t.Errorf("log1pUnit off by %.3f ulp at t = %v", r.unit.ulps, r.unit.at)
	}
	// One float further off reads as 1 ulp, give or take the rounding of
	// the two ulp counts.
	if r.excess.ulps > 1+1e-9 || r.excessSlope.ulps > 1+1e-9 {
		t.Errorf("against the exact logloss the kernel is %.3f ulp (loss, m = %v) and %.3f ulp (slope, m = %v) worse than log1p(exp(−m))",
			r.excess.ulps, r.excess.at, r.excessSlope.ulps, r.excessSlope.at)
	}
}

// TestLogisticKernelEdges checks the inputs a uniform draw misses: signed
// zeros, the old ±35 cut-offs, infinities and NaN (which give the loss
// and slope of log1p(exp(−m)) and its stable sigmoid), t at and around
// the √2−1 reduction boundary, and subnormal t.
func TestLogisticKernelEdges(t *testing.T) {
	f := newRef()
	refLoss, refSlope := new(big.Float), new(big.Float)
	checkMargins := func(ms []float64) {
		t.Helper()
		loss, slopes, ts := kernel(ms)
		for i, m := range ms {
			f.lossSlope(refLoss, refSlope, m, ts[i])
			if u := ulps(loss[i], refLoss); u > 1 {
				t.Errorf("loss(%v) = %v, %.3f ulp off", m, loss[i], u)
			}
			if u := ulps(slopes[i], refSlope); u > 2 {
				t.Errorf("slope(%v) = %v, %.3f ulp off", m, slopes[i], u)
			}
		}
	}
	checkMargins([]float64{0, math.Copysign(0, -1), 35, -35})
	if _, slopes, _ := kernel([]float64{0, math.Copysign(0, -1)}); slopes[0] != 0.5 || slopes[1] != 0.5 {
		t.Errorf("slope(±0) = %v, %v, want 0.5", slopes[0], slopes[1])
	}

	inf := math.Inf(1)
	for _, c := range []struct{ m, loss, slope float64 }{
		{inf, 0, 0},
		{-inf, inf, 1},
		{math.NaN(), math.NaN(), math.NaN()},
	} {
		loss, slopes, _ := kernel([]float64{c.m})
		same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
		if !same(loss[0], c.loss) || !same(slopes[0], c.slope) {
			t.Errorf("m = %v: loss %v slope %v, want %v and %v", c.m, loss[0], slopes[0], c.loss, c.slope)
		}
	}

	// The reduction switches from k = 0 to k = 1 above √2−1: 64 floats
	// on each side of it, and margins whose t lands there.
	boundary := math.Sqrt2 - 1
	u := new(big.Float)
	m0 := -math.Log(boundary)
	var near []float64
	for i, lo, hi, mlo, mhi := 0, boundary, boundary, m0, m0; i < 64; i++ {
		for _, v := range []float64{lo, hi} {
			if d := ulps(log1pUnit(v), f.log1p(u, bigOf(v))); d > 1 {
				t.Errorf("log1pUnit(%v) = %v, %.3f ulp off", v, log1pUnit(v), d)
			}
		}
		near = append(near, mlo, mhi, -mlo, -mhi)
		lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
		mlo, mhi = math.Nextafter(mlo, 0), math.Nextafter(mhi, 1)
	}
	checkMargins(near)

	// log(1 + t) rounds to t for every t below 2⁻⁵³: subnormal t, and the
	// margins past 708 that produce them, give the loss t itself.
	for _, v := range []float64{0, math.SmallestNonzeroFloat64, 0x1p-1030, math.Nextafter(0x1p-1022, 0), 0x1p-1022, 0x1p-60} {
		if got := log1pUnit(v); got != v {
			t.Errorf("log1pUnit(%v) = %v", v, got)
		}
	}
	far := []float64{710, 740, 745}
	loss, slopes, ts := kernel(far)
	for i, m := range far {
		if ts[i] == 0 || loss[i] != ts[i] || slopes[i] != ts[i] {
			t.Errorf("m = %v: t %v, loss %v, slope %v, want all t > 0", m, ts[i], loss[i], slopes[i])
		}
	}
}
