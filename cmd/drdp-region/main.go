// Command drdp-region runs a regional aggregator — the middle tier of
// the hierarchical edge → region → cloud topology. It serves the edge
// protocol to nearby devices (uploads admitted and aggregated locally,
// priors served from the region's own rebuild), and syncs with the
// cloud on timers: summarized component flushes upward, merged-prior
// refreshes downward, and optional component gossip with peer regions
// for cloud-outage operation.
//
// Usage:
//
//	drdp-region -addr :7700 -cloud-addr cloud:7600
//	drdp-region -addr :7700 -cloud-addr cloud:7600 -data-dir /var/lib/drdp-region
//	drdp-region -addr :7700 -cloud-addr cloud:7600 -peers r2:7700,r3:7700 -gossip-interval 30s
//	drdp-region -addr :7700 -cloud-addr cloud:7600 -quarantine
//
// A region keeps serving its devices through a cloud partition: flushes
// defer (and retry the same window after the link heals), while the
// last down-synced cloud prior and any gossiped peer components keep
// the served prior globally informed. SIGINT/SIGTERM shut down cleanly.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/region"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "drdp-region:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:7700", "listen address for device connections")
		name      = flag.String("name", "region", "region name for logs, traces, and telemetry")
		cloudAddr = flag.String("cloud-addr", "", "upstream cloud address (empty = isolated region, no upward sync)")
		peers     = flag.String("peers", "", "comma-separated peer region addresses for gossip")
		alpha     = flag.Float64("alpha", 1, "DP concentration (must match the cloud's)")
		trunc     = flag.Int("trunc", 0, "local prior component truncation (0 = none)")
		summary   = flag.Int("summary-components", dpprior.DefaultSummaryComponents, "max summaries per upward flush window")
		dataDir   = flag.String("data-dir", "", "durable task store directory (empty = in-memory, lost on exit)")
		seed      = flag.Int64("seed", 1, "random seed (drives per-window summarization seeds)")

		flushEvery  = flag.Duration("flush-interval", 10*time.Second, "upward summary-flush cadence")
		downEvery   = flag.Duration("down-interval", 15*time.Second, "downward prior-refresh cadence")
		gossipEvery = flag.Duration("gossip-interval", 0, "peer gossip cadence (0 = never)")
		dialTimeout = flag.Duration("dial-timeout", region.DefaultDialTimeout, "uplink/gossip dial and handshake bound")

		quarantine = flag.Bool("quarantine", false, "statistically quarantine outlier device posteriors at the region")
		trimFrac   = flag.Float64("trim-frac", 0, "max fraction of stored tasks one quarantine round may trim (0 = default)")

		telAddr = flag.String("telemetry-addr", "", "observability listen address (/metrics, /tracez, /healthz, /debug/vars, /debug/pprof); empty disables")
		quiet   = flag.Bool("quiet", false, "only log warnings and errors")

		traceSample = flag.Float64("trace-sample", 0, "head-sampling rate in [0,1] for locally rooted traces (0 = off)")
		traceSlow   = flag.Duration("trace-slow", 0, "root duration past which a trace is pinned notable (0 = default 250ms, negative = never)")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := telemetry.NewLogger(level).With("component", "drdp-region", "region", *name)

	if *traceSample > 0 || *traceSlow != 0 {
		trace.Default.SetSampleRate(*traceSample)
		if *traceSlow != 0 {
			trace.Default.SetSlowThreshold(*traceSlow)
		}
		logger.Info("tracing enabled", "sample_rate", *traceSample, "slow", *traceSlow)
	}

	if *telAddr != "" {
		telSrv, bound, err := telemetry.Serve(*telAddr, nil)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer telSrv.Close()
		logger.Info("telemetry endpoint up", "addr", bound,
			"endpoints", "/metrics /tracez /debug/vars /debug/pprof")
	}

	cfg := region.Config{
		Name:      *name,
		CloudAddr: *cloudAddr,
		Dir:       *dataDir,
		Build: dpprior.BuildOptions{
			Alpha:         *alpha,
			MaxComponents: *trunc,
			Seed:          *seed,
		},
		DialTimeout: *dialTimeout,
		Seed:        *seed,
		Logger:      logger,
	}
	// Build.MaxComponents doubles as the upward flush budget (the window
	// summarizer reads the same options the local rebuild uses); -trunc,
	// when set, wins because it also truncates what devices are served.
	if *trunc == 0 && *summary > 0 {
		cfg.Build.MaxComponents = *summary
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	if *quarantine {
		cfg.Admission = &edge.AdmissionConfig{Quarantine: true, TrimFrac: *trimFrac}
		logger.Info("admission quarantine enabled", "trim_frac", *trimFrac)
	}

	r, err := region.Start(cfg, nil)
	if err != nil {
		return err
	}

	// Sync loops: reused tickers (no per-lap timer churn), all torn down
	// by one stop channel. A failed flush defers — the window goes up
	// intact on the next tick after the link heals.
	stop := make(chan struct{})
	syncDone := make(chan struct{})
	go func() {
		defer close(syncDone)
		flushT := time.NewTicker(*flushEvery)
		defer flushT.Stop()
		downT := time.NewTicker(*downEvery)
		defer downT.Stop()
		var gossipC <-chan time.Time
		if *gossipEvery > 0 && len(cfg.Peers) > 0 {
			gossipT := time.NewTicker(*gossipEvery)
			defer gossipT.Stop()
			gossipC = gossipT.C
		}
		for {
			select {
			case <-stop:
				return
			case <-flushT.C:
				if *cloudAddr == "" {
					continue
				}
				if n, err := r.FlushUp(); err != nil {
					logger.Warn("upward flush deferred", "err", err)
				} else if n > 0 {
					logger.Info("flushed summaries upward", "summaries", n)
				}
			case <-downT.C:
				if *cloudAddr == "" {
					continue
				}
				if err := r.SyncDown(); err != nil {
					logger.Warn("downward sync failed", "err", err)
				}
			case <-gossipC:
				if n, err := r.GossipOnce(); err != nil {
					logger.Warn("gossip incomplete", "err", err)
				} else if n > 0 {
					logger.Info("absorbed peer components", "components", n)
				}
			}
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		logger.Info("shutting down", "signal", sig.String())
		close(stop)
		<-syncDone
		// A final best-effort flush so a clean shutdown loses nothing the
		// cloud could still take.
		if *cloudAddr != "" {
			if _, err := r.FlushUp(); err != nil {
				logger.Warn("final flush deferred", "err", err)
			}
		}
		if err := r.Close(); err != nil {
			logger.Error("shutdown error", "err", err)
		}
	}()

	addrCh := make(chan string, 1)
	go func() {
		logger.Info("serving devices", "addr", <-addrCh, "cloud", *cloudAddr, "peers", cfg.Peers)
	}()
	return r.ListenAndServe(*addr, addrCh)
}
