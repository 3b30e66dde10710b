// Package dpprior implements the Dirichlet-process machinery that carries
// cloud knowledge to edge devices in drdp: a truncated DP Gaussian-mixture
// fit over cloud task posteriors (collapsed Gibbs, the only prior
// builder), and the serializable Prior object that edges receive over
// the wire.
//
// The prior over edge parameters θ has the truncated stick-breaking form
//
//	p(θ) = Σ_k w_k N(θ; μ_k, Σ_k) + w_0 N(θ; 0, σ0² I)
//
// where the components summarize clusters of cloud tasks and the base
// term is the DP's "new cluster" escape hatch with mass governed by the
// concentration α.
package dpprior

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/parallel"
	"github.com/drdp/drdp/internal/stat"
)

// Component is one Gaussian atom of the truncated DP mixture prior.
type Component struct {
	Weight float64    // mixture weight, > 0
	Mu     mat.Vec    // component mean in parameter space
	Sigma  *mat.Dense // component covariance, SPD
	Count  float64    // how many cloud tasks this component summarizes
}

// Prior is the serializable cloud→edge knowledge object: a truncated
// stick-breaking Dirichlet-process mixture over edge model parameters,
// with an isotropic Gaussian base measure carrying the DP's new-cluster
// mass. All fields are exported so the prior round-trips through
// encoding/gob unchanged.
type Prior struct {
	Alpha      float64     // DP concentration
	Components []Component // the mixture atoms (weights + base sum to 1)
	BaseWeight float64     // mass on the base measure N(0, BaseSigma² I)
	BaseSigma  float64     // base measure scale, > 0
	Dim        int         // parameter dimensionality
}

// Validate reports the first structural problem in p, or nil.
func (p *Prior) Validate() error {
	if p.Dim <= 0 {
		return fmt.Errorf("dpprior: prior dim %d must be positive", p.Dim)
	}
	if p.Alpha <= 0 {
		return fmt.Errorf("dpprior: prior alpha %g must be positive", p.Alpha)
	}
	if p.BaseSigma <= 0 {
		return fmt.Errorf("dpprior: prior base sigma %g must be positive", p.BaseSigma)
	}
	if p.BaseWeight < 0 {
		return fmt.Errorf("dpprior: base weight %g must be non-negative", p.BaseWeight)
	}
	total := p.BaseWeight
	for i, c := range p.Components {
		if c.Weight <= 0 {
			return fmt.Errorf("dpprior: component %d weight %g must be positive", i, c.Weight)
		}
		if len(c.Mu) != p.Dim {
			return fmt.Errorf("dpprior: component %d mean dim %d, want %d", i, len(c.Mu), p.Dim)
		}
		if c.Sigma == nil || c.Sigma.Rows != p.Dim || c.Sigma.Cols != p.Dim {
			return fmt.Errorf("dpprior: component %d covariance has wrong shape", i)
		}
		total += c.Weight
	}
	if math.Abs(total-1) > 1e-6 {
		return fmt.Errorf("dpprior: weights sum to %g, want 1", total)
	}
	return nil
}

// WireSize returns the approximate serialized size in bytes: the
// communication cost the cloud pays to ship this prior to one edge.
func (p *Prior) WireSize() int {
	const f64 = 8
	size := 4 * f64 // alpha, base weight, base sigma, dim
	for _, c := range p.Components {
		size += f64 * (2 + len(c.Mu) + len(c.Sigma.Data))
	}
	return size
}

// Encode writes the prior to w in gob format.
func (p *Prior) Encode(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(p); err != nil {
		return fmt.Errorf("dpprior: encode prior: %w", err)
	}
	return nil
}

// Compiled is a Prior with per-component Cholesky factors and precision
// matrices precomputed for the hot paths: log density, responsibilities,
// and the EM quadratic surrogate's value/gradient. Compile once per
// training run; Compiled is safe for concurrent readers.
type Compiled struct {
	Prior      *Prior
	comps      []*stat.MVNormal
	precisions []*mat.Dense // Σ_k⁻¹ for each component
	logW       []float64    // log weights, index len(comps) = base
	basePrec   float64      // 1/BaseSigma²
}

// ErrEmptyPrior reports a prior with no mass anywhere.
var ErrEmptyPrior = errors.New("dpprior: prior has no components and zero base weight")

// Compile validates p and precomputes factorizations.
func Compile(p *Prior) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Components) == 0 && p.BaseWeight == 0 {
		return nil, ErrEmptyPrior
	}
	c := &Compiled{
		Prior:      p,
		comps:      make([]*stat.MVNormal, len(p.Components)),
		precisions: make([]*mat.Dense, len(p.Components)),
		logW:       make([]float64, len(p.Components)+1),
		basePrec:   1 / (p.BaseSigma * p.BaseSigma),
	}
	for i, comp := range p.Components {
		mv, err := stat.NewMVNormal(comp.Mu, comp.Sigma)
		if err != nil {
			return nil, fmt.Errorf("dpprior: component %d: %w", i, err)
		}
		c.comps[i] = mv
		c.precisions[i] = mv.Precision()
		c.logW[i] = math.Log(comp.Weight)
	}
	if p.BaseWeight > 0 {
		c.logW[len(p.Components)] = math.Log(p.BaseWeight)
	} else {
		c.logW[len(p.Components)] = math.Inf(-1)
	}
	return c, nil
}

// Dim returns the parameter dimensionality.
func (c *Compiled) Dim() int { return c.Prior.Dim }

// NumComponents returns the number of mixture atoms (excluding the base).
func (c *Compiled) NumComponents() int { return len(c.comps) }

// LogDensity returns log p(θ) under the mixture prior.
func (c *Compiled) LogDensity(theta mat.Vec) float64 {
	lp := c.componentLogJoint(theta)
	return mat.LogSumExp(lp)
}

// Responsibilities returns the posterior component responsibilities
// γ_k ∝ w_k N(θ; μ_k, Σ_k) at the current iterate θ; the final entry is
// the base-measure responsibility. The result sums to 1.
func (c *Compiled) Responsibilities(theta mat.Vec) []float64 {
	return c.ResponsibilitiesPool(nil, theta)
}

// ResponsibilitiesPool is Responsibilities with the per-component
// Gaussian density evaluations fanned out on the pool. Each component
// writes its own slot of the log-joint vector and the softmax runs
// serially, so the result is bit-identical to the nil-pool (inline)
// path at any worker count.
func (c *Compiled) ResponsibilitiesPool(p *parallel.Pool, theta mat.Vec) []float64 {
	lp := c.componentLogJointPool(p, theta)
	return mat.Softmax(lp, lp)
}

// componentLogJoint returns log w_k + log N(θ; μ_k, Σ_k) per component,
// with the base measure appended.
func (c *Compiled) componentLogJoint(theta mat.Vec) []float64 {
	return c.componentLogJointPool(nil, theta)
}

func (c *Compiled) componentLogJointPool(p *parallel.Pool, theta mat.Vec) []float64 {
	lp := make([]float64, len(c.comps)+1)
	p.ForEach(len(c.comps), func(i int) {
		lp[i] = c.logW[i] + c.comps[i].LogPDF(theta)
	})
	base := c.logW[len(c.comps)]
	if !math.IsInf(base, -1) {
		base += stat.LogNormPDF(theta, make(mat.Vec, c.Prior.Dim), c.Prior.BaseSigma)
	}
	lp[len(c.comps)] = base
	return lp
}

// SurrogateValue evaluates the EM majorization surrogate of −log p(θ)
// at theta given responsibilities gamma (the additive constant involving
// entropy and normalizers is dropped — it does not affect the M-step):
//
//	S(θ; γ) = Σ_k γ_k ½(θ−μ_k)ᵀ Σ_k⁻¹ (θ−μ_k) + γ_0 ½ θᵀθ / σ0²
//
// scratch is the caller's work space of SurrogateScratch() floats, so
// the M-step allocates nothing per evaluation; nil allocates one.
func (c *Compiled) SurrogateValue(theta mat.Vec, gamma []float64, scratch mat.Vec) float64 {
	c.checkGamma(gamma)
	diff, prod := c.scratchVecs(scratch)
	var s float64
	for i, prec := range c.precisions {
		if gamma[i] == 0 {
			continue
		}
		mat.SubVecTo(diff, theta, c.Prior.Components[i].Mu)
		s += gamma[i] * 0.5 * mat.Dot(diff, prec.MulVecTo(prod, diff))
	}
	if g0 := gamma[len(c.precisions)]; g0 > 0 {
		s += g0 * 0.5 * c.basePrec * mat.Dot(theta, theta)
	}
	return s
}

// SurrogateGrad accumulates ∇_θ S(θ; γ) into dst (which must have length
// Dim; nil allocates) and returns dst:
//
//	∇S = Σ_k γ_k Σ_k⁻¹ (θ−μ_k) + γ_0 θ/σ0²
//
// scratch is as for SurrogateValue.
func (c *Compiled) SurrogateGrad(theta mat.Vec, gamma []float64, dst, scratch mat.Vec) mat.Vec {
	c.checkGamma(gamma)
	if dst == nil {
		dst = make(mat.Vec, len(theta))
	}
	diff, prod := c.scratchVecs(scratch)
	for i, prec := range c.precisions {
		if gamma[i] == 0 {
			continue
		}
		mat.SubVecTo(diff, theta, c.Prior.Components[i].Mu)
		mat.Axpy(gamma[i], prec.MulVecTo(prod, diff), dst)
	}
	if g0 := gamma[len(c.precisions)]; g0 > 0 {
		mat.Axpy(g0*c.basePrec, theta, dst)
	}
	return dst
}

// SurrogateScratch returns the work-space length SurrogateValue and
// SurrogateGrad take: two parameter vectors.
func (c *Compiled) SurrogateScratch() int { return 2 * c.Prior.Dim }

// scratchVecs cuts scratch (allocated when nil) into the surrogate's
// two work vectors.
func (c *Compiled) scratchVecs(scratch mat.Vec) (diff, prod mat.Vec) {
	d := c.Prior.Dim
	if scratch == nil {
		scratch = make(mat.Vec, 2*d)
	}
	if len(scratch) != 2*d {
		panic(fmt.Sprintf("dpprior: surrogate scratch length %d, want %d", len(scratch), 2*d))
	}
	return scratch[:d], scratch[d:]
}

// Sample draws θ from the prior: pick a component (or base) by weight,
// then draw from the chosen Gaussian.
func (c *Compiled) Sample(rng *rand.Rand) mat.Vec {
	u := rng.Float64()
	var acc float64
	for i, comp := range c.Prior.Components {
		acc += comp.Weight
		if u < acc {
			return c.comps[i].Sample(rng)
		}
	}
	// Base measure (also the round-off fallthrough).
	x := make(mat.Vec, c.Prior.Dim)
	for j := range x {
		x[j] = c.Prior.BaseSigma * rng.NormFloat64()
	}
	return x
}

func (c *Compiled) checkGamma(gamma []float64) {
	if len(gamma) != len(c.precisions)+1 {
		panic(fmt.Sprintf("dpprior: responsibilities length %d, want %d (components+base)",
			len(gamma), len(c.precisions)+1))
	}
}
