// Distributed scenario: a real TCP cloud server and a fleet of edge
// devices in one process. The cloud starts cold; the first devices (with
// plenty of data) train locally and report their solved tasks, and the
// prior they build lifts the late-arriving devices that only have a
// handful of samples — knowledge accumulation over the wire.
//
// Phase 3 then turns the network hostile: devices pull the prior through
// a link that drops and resets connections, using the resilient
// transport (retry/backoff + redial + prior cache), and finally through
// a total outage, where training degrades to the cached prior instead
// of failing.
//
// Phase 4 makes the cloud itself durable: tasks land in a crash-safe
// on-disk store, the server is killed and restarted recovering the
// exact task set and prior version, and a device that kept its
// pre-crash prior resynchronizes with a component-level delta instead
// of re-downloading the full prior.
//
// Phase 5 scales the cloud out: a replicated shard tier (3 shards × 2
// replicas) routes uploads by content fingerprint, streams each
// leader's log to its follower, and survives a leader kill mid-round —
// the coordinator promotes the caught-up follower and the merged prior
// comes back byte-for-byte intact.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"github.com/drdp/drdp"
)

const dim = 12

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Cloud server on a random local port.
	srv, err := drdp.NewCloudServer(nil, drdp.PriorBuildOptions{Alpha: 1, Seed: 5}, nil)
	if err != nil {
		return err
	}
	addrCh := make(chan string, 1)
	go func() {
		if err := srv.ListenAndServe("127.0.0.1:0", addrCh); err != nil {
			log.Printf("server: %v", err)
		}
	}()
	addr := <-addrCh
	defer srv.Close()
	fmt.Printf("cloud server listening on %s\n\n", addr)

	rng := drdp.NewRNG(314)
	family, err := drdp.NewTaskFamily(rng, dim, 2, 6, 0.15)
	if err != nil {
		return err
	}
	m := drdp.Logistic{Dim: dim}
	set := drdp.UncertaintySet{Kind: drdp.Wasserstein, Rho: 0.05}

	// Phase 1: four data-rich pioneer devices (two per task cluster)
	// bootstrap the cloud. They train purely locally — they ARE the
	// cloud's initial task set — and upload their Laplace posteriors.
	fmt.Println("phase 1: pioneer devices (300 samples each) report their tasks")
	for id := 0; id < 4; id++ {
		task := family.SampleTask(rng, id%2)
		task.Flip = 0.05
		train := task.Sample(rng, 300)
		dev := &drdp.EdgeDevice{ID: id, Model: m, Set: set}
		res, err := dev.TrainWithPrior(nil, train.X, train.Y)
		if err != nil {
			return fmt.Errorf("pioneer %d: %w", id, err)
		}
		cov, err := drdp.LaplacePosterior(m, res.Params, train.X, train.Y, 1e-3)
		if err != nil {
			return fmt.Errorf("pioneer %d posterior: %w", id, err)
		}
		client, err := drdp.DialCloud(addr, 3*time.Second)
		if err != nil {
			return err
		}
		if _, err := client.ReportTask(drdp.TaskPosterior{
			Mu: res.Params, Sigma: cov, N: train.Len(),
		}); err != nil {
			client.Close()
			return fmt.Errorf("pioneer %d report: %w", id, err)
		}
		stats, err := client.Stats()
		client.Close()
		if err != nil {
			return err
		}
		fmt.Printf("  device %d: trained (certificate %.3f), cloud now holds %d tasks\n",
			id, res.RobustLoss, stats.Tasks)
	}

	// Phase 2: data-poor late devices benefit from the accumulated prior.
	fmt.Println("\nphase 2: late devices (12 samples each) pull the prior")
	for id := 4; id < 7; id++ {
		task := family.SampleTask(rng, id%2)
		task.Flip = 0.05
		train := task.Sample(rng, 12)
		test := task.Sample(rng, 2000)

		// Local-only comparison.
		local, err := drdp.ERM{Model: m}.Train(train.X, train.Y)
		if err != nil {
			return err
		}

		client, err := drdp.DialCloud(addr, 3*time.Second)
		if err != nil {
			return err
		}
		dev := &drdp.EdgeDevice{ID: id, Model: m, Set: set, Tau: 0.5, EMIters: 15}
		res, err := dev.Run(client, train.X, train.Y, false)
		client.Close()
		if err != nil {
			return fmt.Errorf("late device %d: %w", id, err)
		}
		fmt.Printf("  device %d: local-only %.3f  → with cloud prior %.3f\n",
			id,
			drdp.Accuracy(m, local, test.X, test.Y),
			drdp.Accuracy(m, res.Params, test.X, test.Y))
	}

	// Phase 3: a flaky uplink. The fault injector drops 20% of writes and
	// resets 10% of operations; the resilient client retries, redials,
	// and keeps the last good prior cached.
	fmt.Println("\nphase 3: flaky uplink (20% drops, 10% resets) through the resilient client")
	cache, err := drdp.NewPriorCache("")
	if err != nil {
		return err
	}
	faults := &drdp.FaultConfig{Seed: 41, DropWrite: 0.2, Reset: 0.1}
	retry := drdp.DefaultRetryPolicy
	retry.MaxAttempts = 8
	retry.Base = 20 * time.Millisecond
	rc := drdp.NewResilientClient(func() (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		return faults.Wrap(conn), nil
	}, drdp.ResilientOptions{
		Retry:            retry,
		Breaker:          drdp.BreakerConfig{Threshold: 16, Cooldown: 200 * time.Millisecond},
		RoundTripTimeout: 500 * time.Millisecond, // drops must be detected fast
		Seed:             99,
		Logger:           drdp.DiscardLogger(), // the metrics below tell the story
	})
	defer rc.Close()

	dev := &drdp.EdgeDevice{
		ID: 7, Model: m, Set: set, Tau: 0.5, EMIters: 15,
		Cache: cache, FallbackLocal: true,
	}
	task := family.SampleTask(rng, 1)
	task.Flip = 0.05
	for round := 0; round < 3; round++ {
		train := task.Sample(rng, 12)
		res, status, err := dev.RunWithStatus(rc, train.X, train.Y, false)
		if err != nil {
			return fmt.Errorf("flaky round %d: %w", round, err)
		}
		test := task.Sample(rng, 1000)
		fmt.Printf("  round %d: prior=%s (v%d)  accuracy %.3f\n",
			round, status.Degradation, status.PriorVersion,
			drdp.Accuracy(m, res.Params, test.X, test.Y))
	}
	st := rc.TransportStats()
	fmt.Printf("  transport: %d dials, %d retries, %d failures, breaker %s\n",
		st.Dials, st.Retries, st.Failures, st.Breaker)

	// Systems view: what did shipping the prior cost?
	client, err := drdp.DialCloud(addr, 3*time.Second)
	if err != nil {
		return err
	}
	stats, err := client.Stats()
	client.Close()
	if err != nil {
		return err
	}
	fmt.Printf("\nprior: %d components, %d bytes — est. transfer %v (wifi), %v (4g), %v (3g)\n",
		stats.Components, stats.WireBytes,
		drdp.LinkWiFi.TransferTime(stats.WireBytes),
		drdp.Link4G.TransferTime(stats.WireBytes),
		drdp.Link3G.TransferTime(stats.WireBytes))

	// Total outage: the cloud goes away entirely; the device still
	// completes its round on the cached prior.
	fmt.Println("\ntotal outage: cloud down, device runs on the cached prior")
	srv.Close()
	outage := drdp.DialResilient(addr, drdp.ResilientOptions{
		Retry:            drdp.RetryPolicy{MaxAttempts: 2, Base: 50 * time.Millisecond},
		DialTimeout:      500 * time.Millisecond,
		RoundTripTimeout: time.Second,
		Seed:             100,
		Logger:           drdp.DiscardLogger(),
	})
	defer outage.Close()
	train := task.Sample(rng, 12)
	res, status, err := dev.RunWithStatus(outage, train.X, train.Y, false)
	if err != nil {
		return fmt.Errorf("outage round: %w", err)
	}
	test := task.Sample(rng, 1000)
	fmt.Printf("  prior=%s (v%d)  accuracy %.3f\n",
		status.Degradation, status.PriorVersion,
		drdp.Accuracy(m, res.Params, test.X, test.Y))

	// Phase 4: a durable cloud. Tasks are appended to a crash-safe store
	// before they are acknowledged; killing and restarting the server
	// recovers the exact task set and prior version, and a device holding
	// the pre-crash prior resyncs with a component-level delta.
	fmt.Println("\nphase 4: durable cloud — crash, recover, delta resync")
	dataDir, err := os.MkdirTemp("", "drdp-distributed")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	startDurable := func() (*drdp.CloudServer, *drdp.TaskStore, string, error) {
		st, err := drdp.OpenStore(drdp.StoreOptions{Dir: dataDir, NoSync: true})
		if err != nil {
			return nil, nil, "", err
		}
		dsrv, err := drdp.NewCloudServerWithStore(st, nil,
			drdp.PriorBuildOptions{Alpha: 1, Seed: 5}, nil)
		if err != nil {
			st.Close()
			return nil, nil, "", err
		}
		ch := make(chan string, 1)
		go func() {
			if err := dsrv.ListenAndServe("127.0.0.1:0", ch); err != nil {
				log.Printf("durable server: %v", err)
			}
		}()
		return dsrv, st, <-ch, nil
	}
	reportOne := func(addr string, cluster int) error {
		t := family.SampleTask(rng, cluster)
		t.Flip = 0.05
		tr := t.Sample(rng, 300)
		params, err := drdp.Ridge{Model: m, Lambda: 1e-3}.Train(tr.X, tr.Y)
		if err != nil {
			return err
		}
		cov, err := drdp.LaplacePosterior(m, params, tr.X, tr.Y, 1e-3)
		if err != nil {
			return err
		}
		cl, err := drdp.DialCloud(addr, 3*time.Second)
		if err != nil {
			return err
		}
		defer cl.Close()
		_, err = cl.ReportTask(drdp.TaskPosterior{Mu: params, Sigma: cov, N: tr.Len()})
		return err
	}

	dsrv, dst, daddr, err := startDurable()
	if err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		if err := reportOne(daddr, i%2); err != nil {
			dsrv.Close()
			dst.Close()
			return fmt.Errorf("durable report %d: %w", i, err)
		}
	}
	dsrv.WaitCaughtUp() // reads below must see every append
	cl, err := drdp.DialCloud(daddr, 3*time.Second)
	if err != nil {
		return err
	}
	prior, v1, err := cl.FetchPrior(m.NumParams())
	cl.Close()
	if err != nil {
		return err
	}
	fmt.Printf("  cloud holds %d tasks; prior v%d has %d components (%d B full)\n",
		dst.Len(), v1, len(prior.Components), prior.WireSize())

	// Kill the cloud. The acknowledged tasks are already on disk.
	dsrv.Close()
	dst.Close()
	fmt.Println("  cloud process killed")

	dsrv, dst, daddr, err = startDurable()
	if err != nil {
		return err
	}
	defer func() { dsrv.Close(); dst.Close() }()
	fmt.Printf("  restarted: recovered %d tasks at version %d\n", dst.Len(), dst.Version())

	// One more report moves the prior forward; the device that kept the
	// pre-crash prior asks for just the difference.
	if err := reportOne(daddr, 1); err != nil {
		return err
	}
	dsrv.WaitCaughtUp()
	before := drdp.TelemetrySnapshot()
	cl, err = drdp.DialCloud(daddr, 3*time.Second)
	if err != nil {
		return err
	}
	patched, v2, err := cl.FetchPriorDelta(m.NumParams(), v1, prior)
	cl.Close()
	if err != nil {
		return err
	}
	after := drdp.TelemetrySnapshot()
	saved := after.Counter("drdp_edge_server_delta_saved_bytes_total") -
		before.Counter("drdp_edge_server_delta_saved_bytes_total")
	if deltas := after.Counter("drdp_edge_server_prior_responses_total", drdp.L("kind", "delta")) -
		before.Counter("drdp_edge_server_prior_responses_total", drdp.L("kind", "delta")); deltas > 0 {
		fmt.Printf("  delta resync v%d→v%d: %d components, full prior %d B, delta saved %.0f B\n",
			v1, v2, len(patched.Components), patched.WireSize(), saved)
	} else {
		fmt.Printf("  resync v%d→v%d shipped the full prior (%d B): every component changed\n",
			v1, v2, patched.WireSize())
	}

	// Observability: everything above also reported into the process-wide
	// metric registry — the same numbers a deployed fleet would scrape
	// from /metrics (drdp-cloud -telemetry-addr) are available in-process.
	snap := drdp.TelemetrySnapshot()
	fmt.Println("\ntelemetry snapshot (what /metrics would show):")
	fmt.Printf("  client: %.0f dials, %.0f retries, %.0f failures; %.0f B sent, %.0f B received\n",
		snap.Counter("drdp_edge_client_dials_total"),
		snap.Counter("drdp_edge_client_retries_total"),
		snap.Counter("drdp_edge_client_failures_total"),
		snap.Counter("drdp_edge_client_sent_bytes_total"),
		snap.Counter("drdp_edge_client_received_bytes_total"))
	fmt.Printf("  cache: %.0f hits, %.0f misses, %.0f stale fallbacks\n",
		snap.Counter("drdp_edge_cache_hits_total"),
		snap.Counter("drdp_edge_cache_misses_total"),
		snap.Counter("drdp_edge_cache_stale_total"))
	fmt.Printf("  cloud: %.0f connections, %.0f get-prior, %.0f report-task requests\n",
		snap.Counter("drdp_edge_server_connections_total"),
		snap.Counter("drdp_edge_server_requests_total", drdp.L("kind", "get-prior")),
		snap.Counter("drdp_edge_server_requests_total", drdp.L("kind", "report-task")))
	fmt.Printf("  store: %.0f appends, %.0f log repairs; prior sync: %.0f full, %.0f delta, %.0f B saved\n",
		snap.Counter("drdp_store_appends_total"),
		snap.Counter("drdp_store_recoveries_total"),
		snap.Counter("drdp_edge_server_prior_responses_total", drdp.L("kind", "full")),
		snap.Counter("drdp_edge_server_prior_responses_total", drdp.L("kind", "delta")),
		snap.Counter("drdp_edge_server_delta_saved_bytes_total"))
	if h, ok := snap.Histogram("drdp_edge_client_roundtrip_seconds"); ok && h.Count > 0 {
		fmt.Printf("  round trip: p50 %.1fms, p99 %.1fms over %d round trips\n",
			h.Quantile(0.5)*1e3, h.Quantile(0.99)*1e3, h.Count)
	}
	fmt.Printf("  training: %.0f fits, %.0f EM iterations\n",
		snap.Counter("drdp_core_fits_total"),
		snap.Counter("drdp_core_em_iterations_total"))

	// Phase 5: the replicated shard tier. Three shards, each a leader
	// plus a follower streaming its log; uploads route by fingerprint;
	// the client merges the shard priors into one DP prior. Then the
	// fault: kill a leader mid-round and watch the tier recover.
	fmt.Println("\nphase 5: replicated shard tier — 3 shards × 2 replicas, leader killed mid-round")
	tier, err := drdp.StartCluster(drdp.ClusterConfig{
		Shards:       3,
		Replicas:     2,
		Build:        drdp.PriorBuildOptions{Alpha: 1, Seed: 5},
		SyncReplicas: 1, // leader acks only after the follower holds the task
		Seed:         17,
		Logger:       drdp.DiscardLogger(),
	})
	if err != nil {
		return err
	}
	defer tier.Close()
	sharded := drdp.DialSharded(tier.CoordinatorAddr(), drdp.ResilientOptions{
		Seed: 18, Logger: drdp.DiscardLogger(),
	})
	defer sharded.Close()

	uploadBatch := func(n int) error {
		for i := 0; i < n; i++ {
			t := family.SampleTask(rng, i%2)
			t.Flip = 0.05
			tr := t.Sample(rng, 300)
			params, err := drdp.Ridge{Model: m, Lambda: 1e-3}.Train(tr.X, tr.Y)
			if err != nil {
				return err
			}
			cov, err := drdp.LaplacePosterior(m, params, tr.X, tr.Y, 1e-3)
			if err != nil {
				return err
			}
			if _, err := sharded.ReportTask(drdp.TaskPosterior{Mu: params, Sigma: cov, N: tr.Len()}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := uploadBatch(6); err != nil {
		return fmt.Errorf("shard tier round 1: %w", err)
	}
	tier.Quiesce(10 * time.Second)
	merged, err := sharded.FetchMergedPrior(m.NumParams())
	if err != nil {
		return err
	}
	mapBefore, err := sharded.Map()
	if err != nil {
		return err
	}
	fmt.Printf("  round 1: 6 tasks across 3 shards, merged prior %d components (map v%d)\n",
		len(merged.Components), mapBefore.Version)

	oldLeader := tier.Coordinator().Map().Shards[0].Leader
	killed, err := tier.KillLeader(0)
	if err != nil {
		return err
	}
	if !tier.WaitFailover(0, oldLeader, 10*time.Second) {
		return fmt.Errorf("shard 0 never failed over")
	}
	fmt.Printf("  fault: killed leader %s; coordinator promoted the follower (map v%d)\n",
		killed, tier.Coordinator().Map().Version)

	if err := uploadBatch(4); err != nil {
		return fmt.Errorf("shard tier round 2: %w", err)
	}
	tier.Quiesce(10 * time.Second)
	merged, err = sharded.FetchMergedPrior(m.NumParams())
	if err != nil {
		return err
	}
	total := 0
	for s := 0; s < 3; s++ {
		total += tier.LeaderOf(s).Server().Store().Len()
	}
	fmt.Printf("  round 2: uploads kept flowing through the failover — %d tasks held, merged prior %d components\n",
		total, len(merged.Components))
	tierSnap := drdp.TelemetrySnapshot()
	fmt.Printf("  replication: %.0f pulls, %.0f frames shipped; %.0f promotion(s)\n",
		tierSnap.Counter("drdp_repl_pulls_total"),
		tierSnap.Counter("drdp_repl_frames_total"),
		tierSnap.Counter("drdp_cluster_promotions_total"))
	return nil
}
