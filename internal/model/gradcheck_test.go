package model

import (
	"math"

	"github.com/drdp/drdp/internal/mat"
)

// gradCheck compares a model's analytic weighted gradient against central
// finite differences of the weighted loss at params, returning the worst
// relative error across coordinates. Tests assert this is tiny.
func gradCheck(m Model, params mat.Vec, x *mat.Dense, y []float64, w []float64, h float64) float64 {
	if h <= 0 {
		h = 1e-6
	}
	analytic := m.WeightedGrad(params, x, y, w, nil)
	weightedLoss := func(p mat.Vec) float64 {
		losses := m.Losses(p, x, y, nil)
		var s float64
		for i, l := range losses {
			s += w[i] * l
		}
		return s
	}
	var worst float64
	p := mat.CloneVec(params)
	for i := range p {
		orig := p[i]
		p[i] = orig + h
		fp := weightedLoss(p)
		p[i] = orig - h
		fm := weightedLoss(p)
		p[i] = orig
		fd := (fp - fm) / (2 * h)
		rel := math.Abs(fd-analytic[i]) / (1 + math.Abs(fd) + math.Abs(analytic[i]))
		if rel > worst {
			worst = rel
		}
	}
	return worst
}
