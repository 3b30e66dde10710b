// Package region implements the middle tier of the hierarchical
// edge → region → cloud topology: a regional aggregator that runs the
// full store + admission + rebuild stack locally, admits raw device
// task posteriors nearby, and speaks the existing edge protocol both
// ways — as a CloudServer to its devices and as a multiplexed client
// to the cloud.
//
// Upward, a region does not forward raw tasks: each sync flushes the
// window of tasks admitted since the last successful sync as a handful
// of DP component summaries (dpprior.SummarizeTasks) through the same
// BatchAddTask request a device fleet would use, cutting cloud upload
// bytes by roughly window/components. Downward, it refreshes the
// cloud's merged prior by version (GetPriorDelta) and folds the cloud's
// components into its local store as pseudo-tasks, so the prior a
// region serves during a cloud partition still carries global
// knowledge. Sideways (optional), a gossip round fetches each peer
// region's prior and absorbs its components the same way, so two
// regions cut off from the cloud keep exchanging what their devices
// learn; the region serves its own build over those pseudo-tasks.
//
// Every pseudo-task injected from above or sideways is tracked by
// fingerprint and excluded from upward flushes: knowledge that came
// from the cloud (directly or via a peer that synced it) is never
// echoed back, which is what keeps the cloud store — and therefore the
// cloud prior — byte-identical to a flat topology feeding it the same
// summaries.
package region

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/store"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
	"github.com/drdp/drdp/internal/wire"
)

// DefaultDialTimeout bounds uplink and gossip dials when Config leaves
// the timeout unset.
const DefaultDialTimeout = 2 * time.Second

// Config describes one regional aggregator.
type Config struct {
	// Name labels the region in logs, traces, and telemetry.
	Name string
	// CloudAddr is the upstream cloud endpoint. Empty disables upward
	// sync (an isolated region still serves and aggregates its devices).
	CloudAddr string
	// Dial overrides the uplink dial — chaos tests gate or fault the
	// cloud link here. nil dials CloudAddr over TCP.
	Dial func() (net.Conn, error)
	// Peers lists sibling regions' serve addresses for gossip.
	Peers []string
	// Dir is the region store directory ("" = in-memory).
	Dir string
	// Build configures the local DP rebuild AND upward summarization;
	// its Alpha must match the cloud's for merged priors to compose.
	Build dpprior.BuildOptions
	// Admission, when non-nil, turns on the local admission judge so a
	// poisoned device is quarantined at the region instead of the cloud.
	Admission *edge.AdmissionConfig
	// WireCodec was the uplink codec preference.
	//
	// Deprecated: every connection is binary; nothing reads it.
	WireCodec wire.Preference
	// DialTimeout bounds uplink/gossip dials and handshakes, and each
	// gossip exchange (0 = DefaultDialTimeout).
	DialTimeout time.Duration
	// Seed derives deterministic summarization seeds per flush window.
	Seed int64
	// Logger receives structured sync/gossip notices.
	Logger *slog.Logger
}

// SyncStats counts what the region's sync machinery actually did.
type SyncStats struct {
	Flushes     int   // successful upward flushes
	Deferred    int   // flushes deferred by an unreachable cloud
	RawTasks    int   // raw tasks summarized upward so far
	Summaries   int   // summary pseudo-tasks shipped upward so far
	RawBytes    int64 // wire bytes the raw tasks would have cost
	UpBytes     int64 // wire bytes the summaries actually cost
	DownSyncs   int   // successful downward prior refreshes
	GossipIn    int   // components absorbed from peers
	GossipPeers int   // successful peer exchanges
}

// Region is a running regional aggregator. All methods are safe for
// concurrent use; the embedded CloudServer serves devices concurrently
// on its own.
type Region struct {
	cfg Config
	srv *edge.CloudServer

	up *edge.ResilientClient // session to the cloud

	mu         sync.Mutex
	syncedSeq  uint64              // store version covered by the last successful flush
	undecided  map[uint64]struct{} // seqs ≤ syncedSeq the admission judge had not decided then
	injected   map[uint64]struct{} // fingerprints of down-sync/gossip pseudo-tasks
	cloudPrior *dpprior.Prior
	cloudVer   uint64
	stats      SyncStats
	closed     bool
}

// Start opens the region's store, builds its local cloud-server stack,
// and returns the region ready to Serve devices and sync. Nothing is
// dialed yet: the uplink is established lazily on the first sync, so
// a cloud that is down at region start only defers sync. Each uplink
// round trip is bounded by edge.DefaultRoundTripTimeout, so a cloud
// that stops answering defers a sync instead of wedging the region.
func Start(cfg Config, seed []dpprior.TaskPosterior) (*Region, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	cfg.Logger = telemetry.OrDefault(cfg.Logger)
	if cfg.Name == "" {
		cfg.Name = "region"
	}
	st, err := store.Open(store.Options{
		Dir:      cfg.Dir,
		Logger:   cfg.Logger,
		Validate: dpprior.TaskValidator(),
	})
	if err != nil {
		return nil, fmt.Errorf("region %s: open store: %w", cfg.Name, err)
	}
	srv, err := edge.NewCloudServerWithStore(st, seed, cfg.Build, cfg.Logger)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("region %s: %w", cfg.Name, err)
	}
	if cfg.Admission != nil {
		srv.SetAdmission(*cfg.Admission)
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func() (net.Conn, error) {
			if cfg.CloudAddr == "" {
				return nil, errors.New("region: no cloud configured")
			}
			return net.DialTimeout("tcp", cfg.CloudAddr, cfg.DialTimeout)
		}
	}
	return &Region{
		cfg: cfg,
		srv: srv,
		up: edge.NewResilientClient(dial, edge.ResilientOptions{
			DialTimeout:      cfg.DialTimeout,
			RoundTripTimeout: edge.DefaultRoundTripTimeout,
			Logger:           cfg.Logger,
		}),
		injected: make(map[uint64]struct{}),
	}, nil
}

// Server exposes the region's local cloud-server stack — devices in
// the same process attach clients to it via its Serve, and tests reach
// the store and prior through it.
func (r *Region) Server() *edge.CloudServer { return r.srv }

// ListenAndServe binds addr and serves devices, sending the bound
// address on addrCh if non-nil.
func (r *Region) ListenAndServe(addr string, addrCh chan<- string) error {
	return r.srv.ListenAndServe(addr, addrCh)
}

// window returns the stored records the next upward flush ships, in
// store order: not yet shipped, not a pseudo-task injected from the
// cloud or a peer, and admitted. With the admission judge on, admitted
// means judged and accepted — a record the judge quarantined, deferred
// or has not reached yet stays out, and those not yet decided are
// returned in undecided so a later window can ship them once accepted.
// Without the judge every record is admitted. Callers hold r.mu.
func (r *Region) window(tasks []dpprior.StoredTask, seqs []uint64, verdicts map[uint64]bool) (window []dpprior.StoredTask, undecided map[uint64]struct{}) {
	judging := r.cfg.Admission != nil && r.cfg.Admission.Quarantine
	for i, seq := range seqs {
		if _, waiting := r.undecided[seq]; seq <= r.syncedSeq && !waiting {
			continue
		}
		if _, fromOutside := r.injected[tasks[i].Fingerprint()]; fromOutside {
			continue
		}
		quarantined, decided := verdicts[seq]
		if quarantined {
			continue
		}
		if judging && !decided {
			if undecided == nil {
				undecided = make(map[uint64]struct{})
			}
			undecided[seq] = struct{}{}
			continue
		}
		window = append(window, tasks[i])
	}
	return window, undecided
}

// FlushUp summarizes every raw task admitted since the last successful
// flush and ships the summaries to the cloud in one batched upload. It
// returns the number of summaries shipped (0 with a nil error means
// the window was empty). On transport failure nothing advances: the
// same window — extended by whatever arrived meanwhile — goes up on
// the next flush after the link heals, in the same order, summarized
// with the same per-window seed.
func (r *Region) FlushUp() (int, error) {
	r.srv.WaitCaughtUp()
	tasks, seqs, version := r.srv.Store().ViewRecords()
	verdicts := r.srv.Store().Verdicts()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, errors.New("region: closed")
	}
	window, undecided := r.window(tasks, seqs, verdicts)
	if len(window) == 0 {
		r.syncedSeq, r.undecided = version, undecided
		return 0, nil
	}
	var rawBytes int64
	for _, t := range window {
		rawBytes += int64(t.WireSize())
	}

	sp := trace.Default.StartTrace("region-flush",
		trace.Str("region", r.cfg.Name), trace.Int("window", int64(len(window))))
	defer sp.End()

	// The summarization seed is a pure function of the region seed and
	// the flush ordinal — NOT the store version, which down-sync and
	// gossip pseudo-tasks advance. Two runs that flush the same device
	// windows in the same order summarize identically even when their
	// pseudo-task traffic differed (that is what keeps the cloud prior
	// byte-identical across a partition), and a deferred flush retried
	// after an outage reuses its seed.
	opts := r.cfg.Build
	opts.Seed = r.cfg.Seed ^ (int64(r.stats.Flushes+1) * 0x9e3779b9)
	sums, err := dpprior.SummarizeTasks(window, opts)
	if err != nil {
		sp.EndErr(err)
		return 0, fmt.Errorf("region %s: summarize: %w", r.cfg.Name, err)
	}
	var upBytes int64
	for _, s := range sums {
		upBytes += int64(s.WireSize())
	}

	if _, _, err := r.up.BatchReportTasks(sums); err != nil {
		r.stats.Deferred++
		sp.EndErr(err)
		return 0, fmt.Errorf("region %s: flush deferred: %w", r.cfg.Name, err)
	}
	r.syncedSeq, r.undecided = version, undecided
	r.stats.Flushes++
	r.stats.RawTasks += len(window)
	r.stats.Summaries += len(sums)
	r.stats.RawBytes += rawBytes
	r.stats.UpBytes += upBytes
	telemetry.RegionSyncFlushes.Inc()
	telemetry.RegionSyncSummaries.Add(float64(len(sums)))
	telemetry.RegionBytesRaw.Add(float64(rawBytes))
	telemetry.RegionBytesUp.Add(float64(upBytes))
	sp.Event("shipped", trace.Int("summaries", int64(len(sums))),
		trace.Int("up-bytes", upBytes), trace.Int("raw-bytes", rawBytes))
	return len(sums), nil
}

// SyncDown refreshes the region's copy of the cloud prior by version
// (delta when possible) and folds any newly seen cloud components into
// the local store as pseudo-tasks, so the prior served to devices
// during a later partition carries global knowledge. Pseudo-tasks are
// fingerprint-tracked and never flushed back up. A cold cloud
// (ErrNoPrior) is not an error.
func (r *Region) SyncDown() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errors.New("region: closed")
	}
	p, v, err := r.up.FetchPriorDelta(r.dim(), r.cloudVer, r.cloudPrior)
	if err != nil {
		if errors.Is(err, edge.ErrNoPrior) {
			return nil
		}
		return fmt.Errorf("region %s: sync down: %w", r.cfg.Name, err)
	}
	if p == nil { // NotModified
		return nil
	}
	r.cloudPrior, r.cloudVer = p, v
	r.stats.DownSyncs++
	r.absorb(p, "cloud")
	return nil
}

// dim reports the parameter dimensionality the region serves, learned
// from its store or, before any local task, its cloud prior. 0 lets
// the server answer with its own dim. Callers hold r.mu.
func (r *Region) dim() int {
	if tasks, _, _ := r.srv.Store().ViewRecords(); len(tasks) > 0 {
		return tasks[0].Dim()
	}
	if r.cloudPrior != nil {
		return r.cloudPrior.Dim
	}
	return 0
}

// absorb folds a prior's components into the local store as
// fingerprint-tracked pseudo-tasks. Components already absorbed (same
// fingerprint) are skipped, so repeated syncs don't pile up duplicate
// pseudo-tasks. Callers hold r.mu.
func (r *Region) absorb(p *dpprior.Prior, from string) int {
	total := 0
	for _, c := range p.Components {
		total += int(c.Count + 0.5)
	}
	injected := 0
	for _, t := range dpprior.ComponentTasks(p, total) {
		fp := t.Fingerprint()
		if _, ok := r.injected[fp]; ok {
			continue
		}
		if _, err := r.srv.AddTask(t); err != nil {
			r.cfg.Logger.Warn("region: absorbing component failed",
				"region", r.cfg.Name, "from", from, "err", err)
			continue
		}
		r.injected[fp] = struct{}{}
		injected++
	}
	return injected
}

// GossipOnce fetches every configured peer region's current prior and
// absorbs its components as pseudo-tasks (fingerprint-deduplicated,
// excluded from upward sync).
// It returns how many components were newly absorbed. Unreachable
// peers are skipped, not fatal — gossip exists precisely for partial
// connectivity.
func (r *Region) GossipOnce() (int, error) {
	r.mu.Lock()
	peers := append([]string(nil), r.cfg.Peers...)
	timeout := r.cfg.DialTimeout
	r.mu.Unlock()

	injected := 0
	var firstErr error
	for _, addr := range peers {
		c, err := edge.Dial(addr, timeout)
		if err == nil {
			// One exchange, bounded like the dial: a peer that handshakes
			// and then goes silent must not stall the gossip round.
			c.SetRoundTripTimeout(timeout)
			var p *dpprior.Prior
			p, _, err = c.FetchPrior(0)
			c.Close()
			if err == nil {
				r.mu.Lock()
				n := r.absorb(p, addr)
				r.stats.GossipIn += n
				r.stats.GossipPeers++
				r.mu.Unlock()
				injected += n
				continue
			}
		}
		if errors.Is(err, edge.ErrNoPrior) {
			continue // cold peer: nothing to exchange yet
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("region %s: gossip %s: %w", r.cfg.Name, addr, err)
		}
	}
	return injected, firstErr
}

// Stats returns a snapshot of the region's sync counters.
func (r *Region) Stats() SyncStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Close shuts the uplink and the local server stack (which syncs and
// closes the store). A sync in flight fails at once and is deferred.
func (r *Region) Close() error {
	// Close the uplink before taking r.mu: a sync holds r.mu across its
	// round trip, and ending the session is what ends that round trip.
	r.up.Close()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	// Again under r.mu: a sync that redialed in between has finished by
	// now, and its session must not outlive the region.
	r.up.Close()
	r.mu.Unlock()
	return r.srv.Close()
}
