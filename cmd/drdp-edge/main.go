// Command drdp-edge runs one edge device: it loads (or synthesizes) a
// small local training set, fetches the DP prior from the cloud server,
// trains with DRDP, evaluates, and optionally reports its solved task
// back to the cloud.
//
// The cloud connection is resilient by default: failed round trips are
// retried with jittered exponential backoff, broken connections are
// redialed, and a circuit breaker fails fast through an outage. With
// -cache the last good prior persists across runs and an unreachable
// cloud degrades to it (then, with -fallback-local, to prior-free
// training) instead of failing; the degradation level is printed.
//
// Usage:
//
//	drdp-edge -cloud 127.0.0.1:7600 -n 20 -rho 0.05 -report
//	drdp-edge -cloud 127.0.0.1:7600 -train train.csv -test test.csv -dim 20
//	drdp-edge -cloud 127.0.0.1:7600 -cache prior.cache -fallback-local -retries 6
//	drdp-edge -n 20                 # no cloud: local DRO training only
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/metrics"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/stat"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "drdp-edge:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		cloud    = flag.String("cloud", "", "cloud server address (empty = train without a prior)")
		trainF   = flag.String("train", "", "training CSV (features..., label); empty = synthesize")
		testF    = flag.String("test", "", "test CSV; empty = synthesize")
		dim      = flag.Int("dim", 20, "feature dimensionality")
		n        = flag.Int("n", 20, "synthetic local training samples")
		rho      = flag.Float64("rho", 0.05, "uncertainty radius")
		kind     = flag.String("set", "wasserstein", "uncertainty set: none|wasserstein|kl|chi2")
		tau      = flag.Float64("tau", 0, "prior weight (0 = 1/n)")
		parallel = flag.Int("parallel", 0, "training workers (0 = serial, <0 = GOMAXPROCS; results bit-identical)")
		report   = flag.Bool("report", false, "report the solved task back to the cloud")
		seed     = flag.Int64("seed", time.Now().UnixNano(), "random seed for synthetic data")
		timeout  = flag.Duration("timeout", 5*time.Second, "cloud dial timeout")

		retries   = flag.Int("retries", edge.DefaultRetryPolicy.MaxAttempts, "round-trip attempts before giving up")
		backoff   = flag.Duration("backoff", edge.DefaultRetryPolicy.Base, "base retry backoff (grows exponentially, jittered)")
		rtTimeout = flag.Duration("rt-timeout", 10*time.Second, "per-round-trip deadline")
		breakerN  = flag.Int("breaker-threshold", edge.DefaultBreakerConfig.Threshold, "consecutive failures that trip the circuit breaker (0 disables)")
		cachePath = flag.String("cache", "", "prior cache file: fall back to the last good prior when the cloud is unreachable")
		fallback  = flag.Bool("fallback-local", false, "train prior-free when the cloud is unreachable and the cache is cold")
		telAddr   = flag.String("telemetry-addr", "", "observability listen address (/metrics, /tracez, /debug/vars, /debug/pprof); empty disables")
		quiet     = flag.Bool("quiet", false, "silence transport warnings")

		traceSample = flag.Float64("trace-sample", 0, "head-sampling rate in [0,1] for device-round traces; sampled rounds propagate trace context to the cloud (0 = off)")
	)
	flag.Parse()

	if *traceSample > 0 {
		trace.Default.SetSampleRate(*traceSample)
	}

	if *telAddr != "" {
		telSrv, bound, err := telemetry.Serve(*telAddr, nil)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer telSrv.Close()
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics\n", bound)
	}

	setKind, err := dro.ParseKind(*kind)
	if err != nil {
		return err
	}

	// Local data: CSV or synthesized from a random linear task.
	var train, test *data.Dataset
	rng := stat.NewRNG(*seed)
	if *trainF != "" {
		train, err = readCSV(*trainF)
		if err != nil {
			return err
		}
		*dim = train.Dim()
	} else {
		family, err := data.NewTaskFamily(rng, *dim, 1, 4, 0.3)
		if err != nil {
			return err
		}
		task := family.SampleTask(rng, 0)
		task.Flip = 0.05
		train = task.Sample(rng, *n)
		test = task.Sample(rng, 2000)
	}
	if *testF != "" {
		test, err = readCSV(*testF)
		if err != nil {
			return err
		}
	}

	m := model.Logistic{Dim: *dim}
	dev := &edge.Device{
		ID:            int(*seed % 1000),
		Model:         m,
		Set:           dro.Set{Kind: setKind, Rho: *rho},
		Tau:           *tau,
		Parallelism:   *parallel,
		FallbackLocal: *fallback,
	}
	if *cachePath != "" {
		cache, err := edge.NewPriorCache(*cachePath)
		if err != nil {
			return err
		}
		dev.Cache = cache
	}

	start := time.Now()
	if *cloud != "" {
		retry := edge.DefaultRetryPolicy
		retry.MaxAttempts = *retries
		retry.Base = *backoff
		ropts := edge.ResilientOptions{
			Retry:            retry,
			Breaker:          edge.BreakerConfig{Threshold: *breakerN, Cooldown: edge.DefaultBreakerConfig.Cooldown},
			DialTimeout:      *timeout,
			RoundTripTimeout: *rtTimeout,
			Seed:             *seed,
		}
		if *quiet {
			ropts.Logger = telemetry.Discard()
		}
		client := edge.DialResilient(*cloud, ropts)
		defer client.Close()
		// A signal mid-round closes the cloud connection (unblocking any
		// in-flight round trip) and exits cleanly: an interrupted edge run
		// is a normal event in the field, not a failure.
		var interrupted atomic.Bool
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigCh)
		go func() {
			sig, ok := <-sigCh
			if !ok {
				return
			}
			interrupted.Store(true)
			fmt.Fprintf(os.Stderr, "drdp-edge: %s: closing cloud connection\n", sig)
			client.Close()
			os.Exit(0)
		}()
		result, status, err := dev.RunWithStatus(client, train.X, train.Y, *report)
		if interrupted.Load() {
			return nil
		}
		if err != nil {
			return err
		}
		printResult(m, result.Params, train, test, result.RobustLoss, time.Since(start))
		fmt.Printf("em iterations: %d (converged=%v)\n", result.EMIterations, result.Converged)
		if result.Responsibilities != nil {
			fmt.Printf("prior responsibilities: %.3f\n", result.Responsibilities)
		}
		fmt.Printf("prior: %s (version %d)\n", status.Degradation, status.PriorVersion)
		if status.FetchErr != nil {
			fmt.Printf("degraded because: %v\n", status.FetchErr)
		}
		if status.ReportErr != nil {
			fmt.Printf("report failed (model kept): %v\n", status.ReportErr)
		}
		st := client.TransportStats()
		if st.Retries > 0 || st.Dials > 1 {
			fmt.Printf("transport: %d dials, %d retries, breaker %s\n", st.Dials, st.Retries, st.Breaker)
		}
		return nil
	}

	result, err := dev.TrainWithPrior(nil, train.X, train.Y)
	if err != nil {
		return err
	}
	printResult(m, result.Params, train, test, result.RobustLoss, time.Since(start))
	return nil
}

func printResult(m model.Logistic, params []float64, train, test *data.Dataset,
	robust float64, elapsed time.Duration) {
	fmt.Printf("trained on %d samples in %v\n", train.Len(), elapsed.Round(time.Millisecond))
	fmt.Printf("train accuracy: %.4f\n", model.Accuracy(m, params, train.X, train.Y))
	if test != nil {
		rep := metrics.Evaluate(m, params, test, dro.Set{})
		fmt.Printf("test accuracy:  %.4f   test NLL: %.4f\n", rep.Accuracy, rep.NLL)
	}
	fmt.Printf("robust-loss certificate: %.4f\n", robust)
}

func readCSV(path string) (*data.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return data.ReadCSV(f, 2)
}
