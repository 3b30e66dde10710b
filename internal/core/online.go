package core

import (
	"errors"
	"fmt"

	"github.com/drdp/drdp/internal/mat"
)

// Online wraps a Learner for streaming edge data: each Observe call
// appends freshly labeled samples and refits, warm-starting EM from the
// previous solution so incremental updates are far cheaper than
// retraining from scratch (the first fit still uses the learner's full
// multi-start strategy to pick the right prior basin). The prior weight
// τ keeps its 1/n semantics against the *accumulated* sample count, so
// cloud knowledge fades naturally as the stream lengthens.
type Online struct {
	learner *Learner
	rows    [][]float64
	labels  []float64
	params  mat.Vec // warm start; nil before the first Observe
	window  int     // 0 = unbounded
}

// NewOnline creates a streaming wrapper around l. The learner is used
// as configured (prior, uncertainty set, M-step options).
func NewOnline(l *Learner) (*Online, error) {
	if l == nil {
		return nil, errors.New("core: NewOnline: nil learner")
	}
	return &Online{learner: l}, nil
}

// NewOnlineWindow creates a streaming wrapper that keeps only the most
// recent window samples — the right mode under concept drift, where old
// samples describe a distribution that no longer exists.
func NewOnlineWindow(l *Learner, window int) (*Online, error) {
	if l == nil {
		return nil, errors.New("core: NewOnlineWindow: nil learner")
	}
	if window <= 0 {
		return nil, fmt.Errorf("core: NewOnlineWindow: window %d must be positive", window)
	}
	return &Online{learner: l, window: window}, nil
}

// Observe appends a batch of samples and refits, returning the fit
// result over the accumulated data.
func (o *Online) Observe(x *mat.Dense, y []float64) (*Result, error) {
	if x == nil || x.Rows == 0 {
		return nil, errors.New("core: Observe: empty batch")
	}
	if x.Rows != len(y) {
		return nil, fmt.Errorf("core: Observe: %d rows but %d labels", x.Rows, len(y))
	}
	if x.Cols != o.learner.model.InputDim() {
		return nil, fmt.Errorf("core: Observe: %d feature columns, want %d",
			x.Cols, o.learner.model.InputDim())
	}
	for i := 0; i < x.Rows; i++ {
		o.rows = append(o.rows, mat.CloneVec(x.Row(i)))
		o.labels = append(o.labels, y[i])
	}
	if o.window > 0 && len(o.rows) > o.window {
		drop := len(o.rows) - o.window
		o.rows = append([][]float64(nil), o.rows[drop:]...)
		o.labels = append([]float64(nil), o.labels[drop:]...)
	}

	all := mat.NewDense(len(o.rows), x.Cols)
	for i, r := range o.rows {
		copy(all.Row(i), r)
	}

	// Warm start after the first fit: a shallow copy of the learner with
	// the previous solution as the single EM start.
	l := o.learner
	if o.params != nil {
		warm := *o.learner
		warm.init = o.params
		l = &warm
	}
	res, err := l.Fit(all, o.labels)
	if err != nil {
		return nil, err
	}
	o.params = res.Params
	return res, nil
}
