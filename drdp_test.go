package drdp_test

import (
	"testing"
	"time"

	"github.com/drdp/drdp"
)

// TestFacadeEndToEnd drives the whole public API surface the way a
// downstream user would: generate data, build a prior from cloud tasks,
// train robustly with it, serve it over TCP and stream — all through
// package drdp only.
func TestFacadeEndToEnd(t *testing.T) {
	rng := drdp.NewRNG(500)
	m := drdp.Logistic{Dim: 8}

	family, err := drdp.NewTaskFamily(rng, 8, 2, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}

	// Cloud: two solved tasks → prior.
	var posteriors []drdp.TaskPosterior
	for i := 0; i < 2; i++ {
		task := family.SampleTask(rng, 0)
		ds := task.Sample(rng, 250)
		params, err := drdp.Ridge{Model: m, Lambda: 1e-3}.Train(ds.X, ds.Y)
		if err != nil {
			t.Fatal(err)
		}
		cov, err := drdp.LaplacePosterior(m, params, ds.X, ds.Y, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		posteriors = append(posteriors, drdp.TaskPosterior{Mu: params, Sigma: cov, N: ds.Len()})
	}
	prior, err := drdp.BuildPrior(posteriors, drdp.PriorBuildOptions{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := drdp.CompilePrior(prior)
	if err != nil {
		t.Fatal(err)
	}

	// Edge training with every public option that composes.
	edgeTask := family.SampleTask(rng, 0)
	edgeTask.Flip = 0.05
	train := edgeTask.Sample(rng, 20)
	test := edgeTask.Sample(rng, 1000)
	learner, err := drdp.NewLearner(m,
		drdp.WithUncertaintySet(drdp.UncertaintySet{Kind: drdp.Wasserstein, Rho: 0.05}),
		drdp.WithPrior(compiled),
		drdp.WithEMIters(10, 1e-7),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := learner.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	if acc := drdp.Accuracy(m, res.Params, test.X, test.Y); acc < 0.8 {
		t.Errorf("facade DRDP accuracy %v", acc)
	}
	if res.RobustLoss < res.EmpiricalLoss {
		t.Error("certificate below empirical loss")
	}

	// Serve the prior over TCP through the facade.
	srv, err := drdp.NewCloudServer(posteriors, drdp.PriorBuildOptions{Alpha: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe("127.0.0.1:0", addrCh) }()
	addr := <-addrCh
	defer func() {
		srv.Close()
		<-served
	}()
	client, err := drdp.DialCloud(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	fetched, _, err := client.FetchPrior(m.NumParams())
	if err != nil {
		t.Fatal(err)
	}
	if fetched.Dim != m.NumParams() {
		t.Errorf("fetched prior dim %d", fetched.Dim)
	}

	// Streaming through the facade.
	online, err := drdp.NewOnline(learner)
	if err != nil {
		t.Fatal(err)
	}
	batch := edgeTask.Sample(rng, 10)
	if _, err := online.Observe(batch.X, batch.Y); err != nil {
		t.Fatal(err)
	}

	// Link-profile arithmetic.
	if drdp.Link3G.TransferTime(prior.WireSize()) <= drdp.LinkWiFi.TransferTime(prior.WireSize()) {
		t.Error("3G should be slower than WiFi")
	}
}
