// Package metrics implements the evaluation measurements reported by the
// experiment suite: accuracy/error, negative log-likelihood, confusion
// matrices, expected calibration error, and robust-loss certificates.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
)

// Report aggregates the standard per-(model, dataset) measurements.
type Report struct {
	Accuracy   float64
	ErrorRate  float64
	NLL        float64 // mean loss (negative log likelihood for classifiers)
	RobustLoss float64 // worst-case loss certificate (0 radius = NLL)
}

// Evaluate computes a Report for params on ds under the given
// uncertainty set (pass the zero Set for plain evaluation).
func Evaluate(m model.Model, params mat.Vec, ds *data.Dataset, set dro.Set) Report {
	losses := m.Losses(params, ds.X, ds.Y, nil)
	acc := model.Accuracy(m, params, ds.X, ds.Y)
	robust, _ := set.WorstCase(losses, m.Lipschitz(params))
	return Report{
		Accuracy:   acc,
		ErrorRate:  1 - acc,
		NLL:        mat.Mean(losses),
		RobustLoss: robust,
	}
}

// ConfusionMatrix returns counts[i][j] = samples of true class i predicted
// as class j, for classification datasets. Binary ±1 labels map to rows
// {0: −1, 1: +1}.
func ConfusionMatrix(m model.Model, params mat.Vec, ds *data.Dataset) ([][]int, error) {
	classes := ds.NumClasses
	if classes < 2 {
		return nil, fmt.Errorf("metrics: ConfusionMatrix needs a classification dataset")
	}
	idx := func(y float64) int {
		if classes == 2 {
			if y > 0 {
				return 1
			}
			return 0
		}
		return int(y)
	}
	out := make([][]int, classes)
	for i := range out {
		out[i] = make([]int, classes)
	}
	for i := 0; i < ds.Len(); i++ {
		truth := idx(ds.Y[i])
		pred := idx(m.Predict(params, ds.X.Row(i)))
		if truth < 0 || truth >= classes || pred < 0 || pred >= classes {
			return nil, fmt.Errorf("metrics: label/prediction out of range at row %d", i)
		}
		out[truth][pred]++
	}
	return out, nil
}

// ECE computes the expected calibration error of a binary probabilistic
// classifier over the given number of equal-width confidence bins.
// proba must return P(y=+1 | x).
func ECE(proba func(x mat.Vec) float64, ds *data.Dataset, bins int) (float64, error) {
	if ds.NumClasses != 2 {
		return 0, fmt.Errorf("metrics: ECE needs binary ±1 labels")
	}
	if bins <= 0 {
		bins = 10
	}
	type bin struct {
		conf, correct, n float64
	}
	bs := make([]bin, bins)
	for i := 0; i < ds.Len(); i++ {
		p := proba(ds.X.Row(i))
		// Confidence of the predicted class.
		pred, conf := 1.0, p
		if p < 0.5 {
			pred, conf = -1.0, 1-p
		}
		b := int(conf * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		bs[b].conf += conf
		bs[b].n++
		if pred == ds.Y[i] {
			bs[b].correct++
		}
	}
	var ece float64
	total := float64(ds.Len())
	for _, b := range bs {
		if b.n == 0 {
			continue
		}
		ece += (b.n / total) * math.Abs(b.correct/b.n-b.conf/b.n)
	}
	return ece, nil
}

// RMSE returns the root-mean-square prediction error of a regression
// model on ds.
func RMSE(m model.Model, params mat.Vec, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	var ss float64
	for i := 0; i < ds.Len(); i++ {
		r := m.Predict(params, ds.X.Row(i)) - ds.Y[i]
		ss += r * r
	}
	return math.Sqrt(ss / float64(ds.Len()))
}

// AUC computes the ROC area under the curve for a binary (±1) dataset
// given a scoring function (higher = more positive), via the
// Mann-Whitney rank statistic with midrank tie handling.
func AUC(score func(x mat.Vec) float64, ds *data.Dataset) (float64, error) {
	if ds.NumClasses != 2 {
		return 0, fmt.Errorf("metrics: AUC needs binary ±1 labels")
	}
	n := ds.Len()
	type scored struct {
		s   float64
		pos bool
	}
	all := make([]scored, n)
	var nPos, nNeg float64
	for i := 0; i < n; i++ {
		all[i] = scored{s: score(ds.X.Row(i)), pos: ds.Y[i] > 0}
		if all[i].pos {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0, fmt.Errorf("metrics: AUC needs both classes present")
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
	// Midranks over ties.
	var rankSumPos float64
	i := 0
	for i < n {
		j := i
		for j < n && all[j].s == all[i].s {
			j++
		}
		midrank := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if all[k].pos {
				rankSumPos += midrank
			}
		}
		i = j
	}
	return (rankSumPos - nPos*(nPos+1)/2) / (nPos * nNeg), nil
}

// MinorityRecall returns the recall of the minority class of a binary
// dataset under the model's hard predictions.
func MinorityRecall(m model.Model, params mat.Vec, ds *data.Dataset) (float64, error) {
	if ds.NumClasses != 2 {
		return 0, fmt.Errorf("metrics: MinorityRecall needs binary ±1 labels")
	}
	counts := ds.ClassCounts()
	minority := 1.0
	if counts[1] > counts[-1] {
		minority = -1
	}
	var total, hit int
	for i := 0; i < ds.Len(); i++ {
		if ds.Y[i] != minority {
			continue
		}
		total++
		if m.Predict(params, ds.X.Row(i)) == minority {
			hit++
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("metrics: minority class absent")
	}
	return float64(hit) / float64(total), nil
}
