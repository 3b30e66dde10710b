package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"github.com/drdp/drdp"
)

// inputHash accumulates every generated input so a run can print one
// inputs_sha256: the same seed must give the same digest, a different
// seed a different one. Only raw generated data is hashed — never the
// output of program code (a fit, a build), so a change to the program
// cannot move the digest.
type inputHash struct {
	h   hash.Hash
	buf [8]byte
}

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (ih *inputHash) floats(xs []float64) {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(ih.buf[:], math.Float64bits(x))
		ih.h.Write(ih.buf[:])
	}
}

func (ih *inputHash) int(v int) { ih.floats([]float64{float64(v)}) }

func (ih *inputHash) dataset(ds *drdp.Dataset) {
	ih.floats(ds.X.Data)
	ih.floats(ds.Y)
}

func (ih *inputHash) sum() string { return hex.EncodeToString(ih.h.Sum(nil)) }

// subRNG derives an independent stream for one named purpose from the
// run seed, so adding a consumer never shifts another consumer's draws.
func subRNG(seed int64, purpose string) *rand.Rand {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, purpose)))
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(sum[:8]))))
}

// Task-family shape shared by every workload: cluster centers of norm
// familySpread with within-cluster scatter familyWithin. Synthetic
// posteriors use the same within-scale for their covariance, which is
// what makes the cloud's Gibbs clustering recover one component per
// cluster.
const (
	familySpread = 4.0
	familyWithin = 0.3
	familyFlip   = 0.05
)

// geometrySeed draws what is part of a workload's definition, like its
// dimension: the cluster centers, the synthetic covariance bank, and the
// pioneer tasks the cloud has seen before the run (so the prior a device
// first trains against). How many components the cloud finds, and how
// many EM and solver iterations a fit against them takes, follow from
// these; they scale a whole run alike, so no amount of measuring inside
// the run averages them away. The run seed draws everything a device or
// an uploader brings: its task within a cluster, its samples, its
// posteriors.
const geometrySeed = 20200708

func newFamily(dim, clusters int) (*drdp.TaskFamily, error) {
	fam, err := drdp.NewTaskFamily(subRNG(geometrySeed, "family"), dim, clusters, familySpread, familyWithin)
	if err != nil {
		return nil, err
	}
	fam.Flip = familyFlip
	return fam, nil
}

// synth draws well-formed task posteriors over params parameters for
// the workloads that do no fitting of their own and only need realistic
// upload traffic: mean = cluster center (norm spread) + within-noise, covariance =
// s²(I + ½uuᵀ) from a small shared bank (the matrices are immutable once
// built, so tasks may alias them), sample count in [40, 200].
type synth struct {
	centers []drdp.Vec
	sigmas  []*drdp.Dense
}

func newSynth(params, clusters int, spread float64) *synth {
	rng := subRNG(geometrySeed, "synth")
	unit := func() drdp.Vec {
		v := make(drdp.Vec, params)
		var ss float64
		for j := range v {
			v[j] = rng.NormFloat64()
			ss += v[j] * v[j]
		}
		for j := range v {
			v[j] /= math.Sqrt(ss)
		}
		return v
	}
	s := &synth{centers: make([]drdp.Vec, clusters), sigmas: make([]*drdp.Dense, 32)}
	for c := range s.centers {
		s.centers[c] = unit()
		for j := range s.centers[c] {
			s.centers[c][j] *= spread
		}
	}
	for b := range s.sigmas {
		u := unit()
		m := drdp.NewDense(params, params)
		for i := 0; i < params; i++ {
			for j := 0; j < params; j++ {
				v := 0.5 * u[i] * u[j]
				if i == j {
					v++
				}
				m.Set(i, j, v*familyWithin*familyWithin)
			}
		}
		s.sigmas[b] = m
	}
	return s
}

// draw returns count posteriors; task i belongs to cluster (i/run) mod
// clusters, so run = 1 interleaves the clusters and a long run uploads
// them in bursts (one deployment type reporting together).
func (s *synth) draw(rng *rand.Rand, ih *inputHash, count, run int) []drdp.TaskPosterior {
	out := make([]drdp.TaskPosterior, count)
	for i := range out {
		center := s.centers[(i/run)%len(s.centers)]
		mu := make(drdp.Vec, len(center))
		for j := range mu {
			mu[j] = center[j] + familyWithin*rng.NormFloat64()
		}
		bank := rng.Intn(len(s.sigmas))
		out[i] = drdp.TaskPosterior{Mu: mu, Sigma: s.sigmas[bank], N: 40 + rng.Intn(161)}
		ih.floats(mu)
		ih.int(bank)
		ih.int(out[i].N)
	}
	return out
}

// poison rewrites t in the shape of sim.PoisonAdversarial: a small-norm
// anti-correlated mean, an overconfident covariance and a huge sample
// count — finite and well-formed, so only the statistical quarantine
// can stop it.
func poison(t drdp.TaskPosterior) drdp.TaskPosterior {
	params := len(t.Mu)
	mu := make(drdp.Vec, params)
	for j, v := range t.Mu {
		mu[j] = -0.2 * v
	}
	sigma := drdp.NewDense(params, params)
	for i := 0; i < params; i++ {
		sigma.Set(i, i, 1e-4)
	}
	return drdp.TaskPosterior{Mu: mu, Sigma: sigma, N: poisonN}
}

// poisonN is the sample count poison claims; no honest generator comes
// near it, so it identifies adversarial records in a store view.
const poisonN = 100000

// labelled is one device's local sample together with the task that
// generated it (kept so held-out test data can be drawn later).
type labelled struct {
	task drdp.LinearTask
	ds   *drdp.Dataset
}

func sampleDatasets(rng *rand.Rand, ih *inputHash, fam *drdp.TaskFamily, count, n int) []labelled {
	out := make([]labelled, count)
	for i := range out {
		t := fam.SampleTask(rng, i%len(fam.Centers))
		out[i] = labelled{task: t, ds: t.Sample(rng, n)}
		ih.dataset(out[i].ds)
	}
	return out
}

// fitPioneers solves count tasks of the family without a prior (n
// samples each, Wasserstein ρ=0.05) and returns their Laplace
// posteriors: the tasks "the cloud has already seen" for the workloads
// that measure model accuracy, where the prior must sit where real fits
// land in parameter space. Callers draw them from geometrySeed. The raw
// samples are hashed; the fits are not.
func fitPioneers(rng *rand.Rand, ih *inputHash, fam *drdp.TaskFamily, m drdp.Logistic, count, n int) ([]drdp.TaskPosterior, error) {
	learner, err := drdp.NewLearner(m, drdp.WithUncertaintySet(drdp.UncertaintySet{Kind: drdp.Wasserstein, Rho: 0.05}))
	if err != nil {
		return nil, err
	}
	out := make([]drdp.TaskPosterior, count)
	for i, l := range sampleDatasets(rng, ih, fam, count, n) {
		res, err := learner.Fit(l.ds.X, l.ds.Y)
		if err != nil {
			return nil, fmt.Errorf("pioneer %d: %w", i, err)
		}
		cov, err := drdp.LaplacePosterior(m, res.Params, l.ds.X, l.ds.Y, 1e-3)
		if err != nil {
			return nil, fmt.Errorf("pioneer %d: laplace: %w", i, err)
		}
		out[i] = drdp.TaskPosterior{Mu: res.Params, Sigma: cov, N: n}
	}
	return out, nil
}
