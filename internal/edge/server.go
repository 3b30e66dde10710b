package edge

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/store"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

const (
	// deltaHistory is how many built priors the server retains for delta
	// synchronization; clients further behind fall back to a full fetch.
	deltaHistory = 8
	// DefaultRebuildTimeout is how long one background prior rebuild may
	// run before its stall timer flags the worker as stalled.
	DefaultRebuildTimeout = 2 * time.Minute
	// DefaultAckTimeout bounds a semi-synchronous AddTask's wait for
	// follower acknowledgements before it acks anyway (availability over
	// strict durability — the timeout is counted and logged).
	DefaultAckTimeout = 2 * time.Second
)

// CloudServer accumulates task posteriors in a durable store and serves
// the DP prior built from them. It is safe for concurrent connections.
//
// Serving is decoupled from building: AddTask appends to the store and
// signals a background rebuild worker, and GetPrior always answers from
// the last built prior — a request never waits behind a Gibbs rebuild,
// and an AddTask burst coalesces into however many rebuilds the worker
// can actually run. The version clients see is therefore always the
// version of the prior they were served (the built version), which
// trails the store version while a rebuild is in flight. The worker is
// the only builder: a read that finds no prior yet waits for its first
// build.
//
// Recent built priors are retained so GetPriorDelta can answer with the
// component-level difference against the version a client already
// holds instead of the full prior. The worker fingerprints each prior
// once, when it publishes it, so a delta answer hashes neither side.
type CloudServer struct {
	// Endpoint is the connection layer: its exported fields tune the
	// hardening (frame limit, idle deadline, connection cap, handler
	// deadline) and are set before Serve.
	*Endpoint

	opts  dpprior.BuildOptions
	st    *store.Store
	ownSt bool // close the store with the server

	// syncReplicas > 0 makes AddTask semi-synchronous: the append is
	// acknowledged only once that many followers have durably applied it
	// (their PullLog AfterSeq covers the new version), or ackTimeout
	// expires. Set through SetSemiSync (safe on a live server — failover
	// shrinks the quorum when replicas die).
	syncReplicas atomic.Int64
	ackTimeoutNs atomic.Int64

	// mu serializes task validation + append (the store itself is safe,
	// but dimension checks must be atomic with the append they guard).
	// It also guards fps, the upload-dedupe fingerprint set.
	mu  sync.Mutex
	fps map[uint64]uint64 // fingerprint → seq; nil = dedupe off

	// follower marks this replica read-only for clients: writes answer
	// CodeNotLeader, the store advances only through ApplyReplicated.
	follower atomic.Bool

	// serveDelayNs stalls every dispatch by this long — the gray-failure
	// chaos hook: the replica stays alive (probes answer, TCP accepts)
	// but every answer is slow, which is exactly the failure mode the
	// coordinator's latency scoring must catch. Set via SetServeDelay.
	serveDelayNs atomic.Int64

	// ackMu guards per-follower acknowledgements; ackCh is closed and
	// replaced whenever an ack advances, releasing semi-sync waiters.
	ackMu sync.Mutex
	acks  map[int]uint64
	ackCh chan struct{}

	// priorMu guards the ring of published priors and the built version.
	// The ring holds the last deltaHistory published priors, oldest
	// first; its newest entry is the served prior. Entries are immutable.
	priorMu sync.Mutex
	ring    []*published
	built   uint64 // store version the served prior corresponds to
	// builtCond is broadcast whenever a build ends (built advances or
	// buildsFailed counts a failure, buildErr holding the last error), the
	// stall timer flags a stall, or the server closes.
	builtCond    *sync.Cond
	buildsFailed uint64
	buildErr     error
	// buildEpoch advances at the start and at the end of every build, so
	// a stall timer can tell whether the build it timed is still running.
	buildEpoch uint64

	// admMu guards the admission configuration (settable on a live server).
	admMu sync.Mutex
	adm   AdmissionConfig

	// Admission counters surfaced through Stats. acceptedN/quarantinedN
	// are the current totals over stored tasks (refreshed by admit);
	// rejected is cumulative.
	acceptedN    atomic.Int64
	quarantinedN atomic.Int64
	rejected     atomic.Int64

	// Stall detection: stalled latches the verdict of the timer armed for
	// each build (flagStall) until that build ends.
	rebuildTimeoutNs atomic.Int64
	stalled          atomic.Bool
	healthStop       func()

	rebuildCh chan struct{} // capacity 1: pending-rebuild signal
	stopCh    chan struct{}
	workerWg  sync.WaitGroup
	closeOnce sync.Once

	// buildHook, when set, runs at the start of every background rebuild
	// — test seam for asserting non-blocking serving during a rebuild.
	// Guarded by priorMu so tests can install it on a live server.
	buildHook func(version uint64)
}

// NewCloudServer creates a server backed by an in-memory (non-durable)
// store. Seed tasks may be nil. A nil logger picks the default handler
// (stderr, WARN level) so panics and decode errors are visible by
// default; pass telemetry.Discard() to silence.
func NewCloudServer(seed []dpprior.TaskPosterior, opts dpprior.BuildOptions, logger *slog.Logger) (*CloudServer, error) {
	st, err := store.Open(store.Options{Logger: logger})
	if err != nil {
		return nil, err
	}
	return NewCloudServerWithStore(st, seed, opts, logger)
}

// NewCloudServerWithStore creates a server on an opened store — the
// durable path: tasks the store recovered are served from the first read
// on (which waits for the first build), and every reported task is
// appended before it is acknowledged. The server owns the store from
// here on: Close syncs and closes it. Seed tasks are appended only when
// the store is empty, so re-seeding a recovered store never duplicates
// tasks.
func NewCloudServerWithStore(st *store.Store, seed []dpprior.TaskPosterior, opts dpprior.BuildOptions, logger *slog.Logger) (*CloudServer, error) {
	if opts.Alpha <= 0 {
		return nil, fmt.Errorf("edge: NewCloudServer: alpha %g must be positive", opts.Alpha)
	}
	if st == nil {
		return nil, errors.New("edge: NewCloudServerWithStore: nil store")
	}
	s := &CloudServer{
		opts:      opts,
		st:        st,
		ownSt:     true,
		rebuildCh: make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		acks:      make(map[int]uint64),
		ackCh:     make(chan struct{}),
	}
	s.Endpoint = NewEndpoint(s.dispatch, logger)
	s.builtCond = sync.NewCond(&s.priorMu)
	s.rebuildTimeoutNs.Store(int64(DefaultRebuildTimeout))
	if st.Version() == 0 {
		for i, t := range seed {
			if _, err := s.appendTask(t); err != nil {
				return nil, fmt.Errorf("edge: seed task %d: %w", i, err)
			}
		}
	}
	s.healthStop = telemetry.RegisterHealth("cloud-rebuild", func() error {
		if s.stalled.Load() {
			return errors.New("prior rebuild worker stalled")
		}
		return nil
	})
	// The first build runs on first demand — a read, WaitCaughtUp, AddTask
	// or SetAdmission — so an admission configuration installed right
	// after construction governs it.
	s.workerWg.Add(1)
	go s.rebuildLoop()
	return s, nil
}

// AdmissionConfig enables statistical quarantine: each undecided stored
// task is scored under the currently served prior (dpprior.Judge) and
// outliers are held out of rebuilds. Verdicts persist in the store, so a
// restart keeps them.
type AdmissionConfig struct {
	// Quarantine turns the admission judge on.
	Quarantine bool
	// TrimFrac caps the fraction of stored tasks one judgment round may
	// quarantine (0 = dpprior default).
	TrimFrac float64
	// MinScored is the smallest task population worth judging
	// (0 = dpprior default).
	MinScored int
}

// SetAdmission installs the admission configuration (safe on a live
// server) and kicks a rebuild so it takes effect immediately.
func (s *CloudServer) SetAdmission(cfg AdmissionConfig) {
	s.admMu.Lock()
	s.adm = cfg
	s.admMu.Unlock()
	s.kickRebuild()
}

// SetRebuildTimeout adjusts the rebuild stall threshold (safe on a
// live server, from the next build on; non-positive values are
// ignored).
func (s *CloudServer) SetRebuildTimeout(d time.Duration) {
	if d > 0 {
		s.rebuildTimeoutNs.Store(int64(d))
	}
}

// Store exposes the underlying task store (read-mostly: recovery info,
// forced snapshots).
func (s *CloudServer) Store() *store.Store { return s.st }

// appendTask validates and appends one task under mu. Validation is the
// admission gate of the whole system: nothing non-finite, mis-shaped,
// non-PSD or mis-dimensioned ever reaches the store or a rebuild.
func (s *CloudServer) appendTask(t dpprior.TaskPosterior) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dim := 0
	if tasks, _, _ := s.st.ViewRecords(); len(tasks) > 0 {
		dim = tasks[0].Dim()
	}
	if err := t.Validate(dim); err != nil {
		telemetry.ServerAdmitRejected.Inc()
		s.rejected.Add(1)
		return 0, fmt.Errorf("edge: AddTask: %w", err)
	}
	if s.fps != nil {
		if _, seen := s.fps[t.Fingerprint()]; seen {
			// An ambiguous retry: the content is already durable, so ack
			// with the current version instead of appending a duplicate.
			telemetry.ServerDeduped.Inc()
			return s.st.Version(), nil
		}
	}
	v, err := s.st.Append(t)
	if err != nil {
		return 0, fmt.Errorf("edge: AddTask: %w", err)
	}
	if s.fps != nil {
		s.fps[t.Fingerprint()] = v
	}
	return v, nil
}

// AddTask durably incorporates one task posterior (also callable
// in-process) and returns the new store version. The served prior
// catches up asynchronously; use WaitCaughtUp to block until it has.
func (s *CloudServer) AddTask(t dpprior.TaskPosterior) (uint64, error) {
	v, _, err := s.addTasks([]dpprior.TaskPosterior{t}, nil)
	return v, err
}

// addTasks appends tasks in upload order, then pays the cross-cutting
// costs once for the whole batch: one rebuild kick and — under semi-sync
// replication — one quorum wait on the final version, instead of per
// task. The durable appends and the acknowledgement wait each become a
// child span of sp, so a trace of a slow upload shows whether the disk or
// the follower quorum ate the time. A validation rejection stops the
// batch; the tasks already appended stay appended (they are durable) and
// the returned count tells the client exactly where the batch stopped.
// Retrying a batch is safe under upload dedupe: already-stored tasks ack
// without a second append.
func (s *CloudServer) addTasks(ts []dpprior.TaskPosterior, sp *trace.Span) (uint64, int, error) {
	ap := sp.Child("store-append", trace.Int("tasks", int64(len(ts))))
	var version uint64
	done := 0
	var err error
	for i := range ts {
		var v uint64
		if v, err = s.appendTask(ts[i]); err != nil {
			break
		}
		version = v
		done++
	}
	if done == 0 {
		ap.EndErr(err)
		return 0, 0, err
	}
	ap.SetAttr(trace.Int("version", int64(version)))
	ap.EndErr(err)
	s.kickRebuild()
	if s.syncReplicas.Load() > 0 && !s.IsFollower() {
		aw := sp.Child("ack-wait", trace.Int("version", int64(version)))
		s.waitAcked(version)
		aw.End()
	}
	return version, done, err
}

// kickRebuild signals the worker; a signal is already pending when the
// channel is full, which is exactly the coalescing we want.
func (s *CloudServer) kickRebuild() {
	select {
	case s.rebuildCh <- struct{}{}:
	default:
	}
}

// rebuildLoop is the background build worker: it folds new tasks into a
// freshly built prior whenever the store has moved past the served
// version, without ever holding a lock across the (expensive) build.
func (s *CloudServer) rebuildLoop() {
	defer s.workerWg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.rebuildCh:
		}
		for s.rebuild() {
			select {
			case <-s.stopCh:
				return
			default:
			}
		}
	}
}

// rebuild builds the prior for the current store version when the
// served one trails it, and reports whether it ran a build that
// succeeded — the worker then looks again, since tasks may have landed
// meanwhile. It is the only code that builds, times and publishes the
// served prior.
func (s *CloudServer) rebuild() bool {
	tasks, seqs, v := s.st.ViewRecords()
	s.priorMu.Lock()
	if v == 0 || v == s.built {
		s.priorMu.Unlock()
		return false
	}
	hook := s.buildHook
	s.buildEpoch++
	epoch := s.buildEpoch
	s.priorMu.Unlock()
	// Armed before the hook so the stall timer covers the whole build,
	// including anything a test seam blocks on.
	start := time.Now()
	stall := time.AfterFunc(time.Duration(s.rebuildTimeoutNs.Load()), func() { s.flagStall(epoch, start) })
	if hook != nil {
		hook(v)
	}
	// The rebuild gets its own head-sampled trace: quarantine verdicts
	// land on it as events, so a post-mortem can see which uploads the
	// admission judge held out of the served prior.
	rsp := s.traceRecorder().StartTrace("rebuild",
		trace.Str("node", s.NodeName()), trace.Int("version", int64(v)), trace.Int("tasks", int64(len(tasks))))
	var p *dpprior.Prior
	var err error
	if admitted := s.admit(tasks, seqs, rsp); len(admitted) == 0 {
		// Everything stored is quarantined: keep serving whatever prior
		// exists, but mark the version covered so waiters are released.
		rsp.Event("all-quarantined")
	} else {
		bsp := rsp.Child("build", trace.Int("admitted", int64(len(admitted))))
		p, err = dpprior.Build(admitted, s.opts)
		bsp.EndErr(err)
	}
	rsp.EndErr(err)
	stall.Stop()
	var pub *published
	switch {
	case err != nil:
		// The previous prior keeps serving; the next AddTask (or cold
		// read) retries.
		s.logger.Error("edge: background prior rebuild failed", "version", v, "err", err)
	case p != nil:
		// Fingerprinted here, outside priorMu, once per published prior.
		pub = &published{version: v, prior: p, fps: p.Fingerprints()}
	}
	s.setBuilt(pub, v, err)
	return err == nil
}

// published is one prior the worker published: the store version it was
// built at, and its component fingerprints (Prior.Fingerprints), kept
// beside it so delta answers pair components without hashing.
type published struct {
	version uint64
	prior   *dpprior.Prior
	fps     []uint64
}

// flagStall is the stall check, run by the timer rebuild arms for
// each build: when the build opened at epoch is still running past the
// rebuild timeout, the stall is latched into telemetry (the stalled gauge),
// the /healthz readiness check and the floor waits (awaitBuilt). The
// build's end clears it (setBuilt).
func (s *CloudServer) flagStall(epoch uint64, start time.Time) {
	s.priorMu.Lock()
	flag := s.buildEpoch == epoch && !s.stalled.Swap(true)
	if flag {
		s.builtCond.Broadcast()
	}
	s.priorMu.Unlock()
	if flag {
		d := time.Since(start).Round(time.Millisecond)
		telemetry.ServerRebuildStalled.Set(1)
		s.logger.Error("edge: prior rebuild worker stalled", "for", d)
	}
}

// admit applies the admission pass (dpprior.Admit) to the stored task
// set, judging undecided tasks against the served prior, and returns the
// tasks a rebuild may use, in store order. New verdicts are persisted
// and recorded as events on sp (nil = untraced).
func (s *CloudServer) admit(tasks []dpprior.StoredTask, seqs []uint64, sp *trace.Span) []dpprior.StoredTask {
	s.admMu.Lock()
	cfg := s.adm
	s.admMu.Unlock()
	if !cfg.Quarantine {
		s.acceptedN.Store(int64(len(tasks)))
		s.quarantinedN.Store(0)
		return tasks
	}
	stored := s.st.Verdicts()
	var served *dpprior.Prior
	s.priorMu.Lock()
	if cur := s.servedLocked(); cur != nil {
		served = cur.prior
	}
	s.priorMu.Unlock()
	admitted, verdicts, deferred := dpprior.Admit(tasks, func(i int) (bool, bool) {
		q, ok := stored[seqs[i]]
		return q, ok
	}, served, dpprior.AdmissionOptions{TrimFrac: cfg.TrimFrac, MinScored: cfg.MinScored})
	for _, i := range deferred {
		telemetry.ServerAdmitDeferred.Inc()
		sp.Event("verdict", trace.Int("seq", int64(seqs[i])), trace.Str("verdict", "deferred"))
	}
	if len(verdicts) > 0 {
		bySeq := make(map[uint64]bool, len(verdicts))
		for i, quarantined := range verdicts {
			bySeq[seqs[i]] = quarantined
			if quarantined {
				telemetry.ServerAdmitQuarantined.Inc()
				sp.Event("verdict", trace.Int("seq", int64(seqs[i])), trace.Str("verdict", "quarantined"))
			} else {
				telemetry.ServerAdmitAccepted.Inc()
			}
		}
		if err := s.st.SetVerdicts(bySeq); err != nil {
			// The verdicts still hold for this rebuild; only their
			// durability is degraded.
			s.logger.Warn("edge: persisting admission verdicts failed", "err", err)
		}
	}
	s.acceptedN.Store(int64(len(admitted)))
	s.quarantinedN.Store(int64(len(tasks) - len(admitted)))
	return admitted
}

// setBuilt ends the worker's build of store version v. A successful
// build publishes pub, which the ring retains for delta sync; pub is nil
// when admission left nothing to build from, and v is then only marked
// covered. A failed build (err) is counted and kept for cold reads while
// the previous prior keeps serving. Either way a stall verdict clears
// and builtCond waiters wake.
func (s *CloudServer) setBuilt(pub *published, v uint64, err error) {
	s.priorMu.Lock()
	s.buildEpoch++
	recovered := s.stalled.Swap(false)
	switch {
	case err != nil:
		s.buildsFailed++
		s.buildErr = err
	case v > s.built:
		s.built = v
		if pub != nil {
			if len(s.ring) == deltaHistory {
				n := copy(s.ring, s.ring[1:])
				s.ring[n] = nil
				s.ring = s.ring[:n]
			}
			s.ring = append(s.ring, pub)
		}
	}
	s.builtCond.Broadcast()
	s.priorMu.Unlock()
	if recovered {
		telemetry.ServerRebuildStalled.Set(0)
		s.logger.Info("edge: prior rebuild worker recovered")
	}
	if pub != nil {
		telemetry.ServerRebuilds.Inc()
	}
}

// errNoTasks marks the cold-start condition; dispatch maps it to
// CodeNoTasks so clients see ErrNoPrior instead of an opaque string.
var errNoTasks = errors.New("edge: no tasks reported yet")

// Prior returns the served prior and its (built) version without waiting
// for in-flight rebuilds — except at cold start: when tasks are stored
// but no prior has been published yet, it waits for the worker's first
// build (awaitBuilt). It fails when no tasks have been reported yet, when
// admission left nothing to build from, and when that first build failed;
// a stalled or closing server with no prior answers as a cold one.
func (s *CloudServer) Prior() (*dpprior.Prior, uint64, error) {
	cur, built, err := s.served()
	if err != nil {
		return nil, 0, err
	}
	return cur.prior, built, nil
}

// served is Prior answering with the served prior's ring entry.
func (s *CloudServer) served() (*published, uint64, error) {
	s.priorMu.Lock()
	cur, built := s.servedLocked(), s.built
	s.priorMu.Unlock()
	if cur != nil {
		return cur, built, nil
	}
	stored := s.st.Version()
	if stored == 0 {
		return nil, 0, errNoTasks
	}
	cur, built, err := s.awaitBuilt(stored)
	switch {
	case err != nil:
		return nil, 0, fmt.Errorf("edge: rebuild prior: %w", err)
	case cur == nil:
		return nil, 0, errNoTasks
	}
	return cur, built, nil
}

// servedLocked returns the ring's newest entry, the served prior (nil
// before the first publish). The caller holds priorMu.
func (s *CloudServer) servedLocked() *published {
	if n := len(s.ring); n > 0 {
		return s.ring[n-1]
	}
	return nil
}

// WaitCaughtUp blocks until the served prior covers every task appended
// before the call (or the server closes). Tests and deterministic
// drivers use it to get read-your-writes freshness across the async
// rebuild boundary.
func (s *CloudServer) WaitCaughtUp() {
	target := s.st.Version()
	if target == 0 {
		return
	}
	s.kickRebuild()
	s.priorMu.Lock()
	defer s.priorMu.Unlock()
	for s.built < target {
		select {
		case <-s.stopCh:
			return
		default:
		}
		s.builtCond.Wait()
	}
}

// awaitBuilt kicks the worker and waits for the build that covers store
// version floor, then returns the served ring entry. It serves both cold
// reads and the leader half of read-your-writes. A build that fails
// meanwhile (its error is returned), a stalled one (flagStall's
// verdict) or a closing server ends the wait early with whatever prior
// is then served, so a read waits at most for the builds already due.
func (s *CloudServer) awaitBuilt(floor uint64) (*published, uint64, error) {
	s.priorMu.Lock()
	defer s.priorMu.Unlock()
	failed := s.buildsFailed
	s.kickRebuild()
	for s.built < floor && !s.stalled.Load() {
		if s.buildsFailed != failed {
			return s.servedLocked(), s.built, s.buildErr
		}
		select {
		case <-s.stopCh:
			return s.servedLocked(), s.built, nil
		default:
		}
		s.builtCond.Wait()
	}
	return s.servedLocked(), s.built, nil
}

// retained returns the ring entry published at exactly version, if the
// ring still holds it.
func (s *CloudServer) retained(version uint64) *published {
	s.priorMu.Lock()
	defer s.priorMu.Unlock()
	for _, pub := range s.ring {
		if pub.version == version {
			return pub
		}
	}
	return nil
}

// Stats returns current counters.
func (s *CloudServer) Stats() Stats {
	st := Stats{
		Tasks:       s.st.Len(),
		Accepted:    int(s.acceptedN.Load()),
		Quarantined: int(s.quarantinedN.Load()),
		Rejected:    int(s.rejected.Load()),
	}
	if p, v, err := s.Prior(); err == nil {
		st.PriorVersion = v
		st.Components = len(p.Components)
		st.WireBytes = p.WireSize()
	}
	return st
}

// Close stops accepting, closes active connections (clients see a clean
// connection error on their next round trip), stops the rebuild worker,
// and syncs and closes the task store so every acknowledged task is on
// disk. It waits for in-flight handlers.
func (s *CloudServer) Close() error {
	err := s.Endpoint.Close()
	s.closeOnce.Do(func() {
		close(s.stopCh)
		s.workerWg.Wait()
		if s.healthStop != nil {
			s.healthStop()
		}
		s.priorMu.Lock()
		s.builtCond.Broadcast() // release WaitCaughtUp waiters
		s.priorMu.Unlock()
		if s.ownSt {
			if serr := s.st.Close(); err == nil {
				err = serr
			}
		}
	})
	return err
}

// servedPrior resolves the served ring entry for a fetch-style request,
// mapping errors to protocol responses (nil means success).
func (s *CloudServer) servedPrior(req *Request, sp *trace.Span) (*published, uint64, *Response) {
	cur, version, err := s.served()
	if err != nil {
		code := CodeInternal
		if errors.Is(err, errNoTasks) {
			code = CodeNoTasks
		}
		return nil, 0, &Response{Err: err.Error(), Code: code}
	}
	if req.Dim != 0 && req.Dim != cur.prior.Dim {
		return nil, 0, &Response{
			Err:  fmt.Sprintf("prior dim %d does not match requested %d", cur.prior.Dim, req.Dim),
			Code: CodeBadRequest,
		}
	}
	if req.MinVersion > version && !s.IsFollower() {
		// Read-your-writes at the leader: when the store already holds the
		// floor, the rebuild covering it is due, so wait for it rather
		// than refuse. A floor past the store (acked by an earlier leader)
		// still refuses at once.
		if s.st.Version() >= req.MinVersion {
			cur, version, _ = s.awaitBuilt(req.MinVersion)
		}
	}
	if req.MinVersion != 0 && version < req.MinVersion {
		// Read-your-writes gate: this replica's built prior trails one the
		// edge has already applied. Serving it would roll the edge back,
		// so refuse and let the client fall through to a fresher replica.
		telemetry.ServerLagging.Inc()
		sp.Event("lagging", trace.Int("built", int64(version)), trace.Int("floor", int64(req.MinVersion)))
		return nil, 0, &Response{
			Err:     fmt.Sprintf("replica prior version %d trails required %d", version, req.MinVersion),
			Code:    CodeLagging,
			Version: version,
		}
	}
	return cur, version, nil
}

// SetServeDelay makes every subsequent dispatch sleep for d before
// answering (0 restores normal service). Safe on a live server. This is
// the gray-failure injection point: unlike killing the process, the
// replica keeps accepting connections and answering probes — just
// slowly.
func (s *CloudServer) SetServeDelay(d time.Duration) { s.serveDelayNs.Store(int64(d)) }

func (s *CloudServer) dispatch(req *Request, sp *trace.Span) *Response {
	if d := s.serveDelayNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	switch req.Kind {
	case GetPrior, GetPriorDelta:
		cur, version, errResp := s.servedPrior(req, sp)
		if errResp != nil {
			return errResp
		}
		p := cur.prior
		if req.KnownVersion != 0 && req.KnownVersion == version {
			telemetry.ServerPriorNotModified.Inc()
			sp.Event("prior", trace.Str("payload", "not-modified"), trace.Int("version", int64(version)))
			return &Response{Version: version, NotModified: true}
		}
		var old *published
		if req.Kind == GetPriorDelta {
			old = s.retained(req.KnownVersion)
		}
		if old != nil {
			delta := dpprior.DiffFingerprinted(old.prior, p, old.fps, cur.fps, req.KnownVersion, version)
			// A delta only ships when it actually beats the full prior —
			// a rebuild that changed every component degenerates to Adds
			// and the full payload is the cheaper, simpler answer.
			if saved := p.WireSize() - delta.WireSize(); saved > 0 {
				telemetry.ServerPriorDelta.Inc()
				telemetry.ServerDeltaSavedBytes.Add(float64(saved))
				sp.Event("prior", trace.Str("payload", "delta"), trace.Int("version", int64(version)))
				return &Response{Delta: delta, Version: version}
			}
		}
		// A plain fetch, or a version gap too old, diverged, or a delta not
		// worth it: full prior.
		telemetry.ServerPriorFull.Inc()
		sp.Event("prior", trace.Str("payload", "full"), trace.Int("version", int64(version)))
		return &Response{Prior: p, Version: version}
	case ReportTask:
		if req.Task == nil {
			return &Response{Err: "report-task: missing task", Code: CodeBadRequest}
		}
		if s.IsFollower() {
			telemetry.ServerNotLeader.Inc()
			sp.Event("not-leader")
			return &Response{Err: errNotLeader.Error(), Code: CodeNotLeader}
		}
		version, _, err := s.addTasks([]dpprior.TaskPosterior{*req.Task}, sp)
		if err != nil {
			return &Response{Err: err.Error(), Code: CodeBadRequest}
		}
		return &Response{Version: version}
	case BatchAddTask:
		if len(req.Tasks) == 0 {
			return &Response{Err: "batch-add-task: empty batch", Code: CodeBadRequest}
		}
		if s.IsFollower() {
			telemetry.ServerNotLeader.Inc()
			sp.Event("not-leader")
			return &Response{Err: errNotLeader.Error(), Code: CodeNotLeader}
		}
		version, done, err := s.addTasks(req.Tasks, sp)
		if err != nil {
			return &Response{Err: fmt.Sprintf("batch task %d: %v", done, err), Code: CodeBadRequest, Version: version, BatchDone: done}
		}
		return &Response{Version: version, BatchDone: done}
	case PullLog:
		return s.servePullLog(req, sp)
	case GetStats:
		return &Response{Stats: s.Stats()}
	default:
		return &Response{Err: fmt.Sprintf("unknown request kind %d", int(req.Kind)), Code: CodeBadRequest}
	}
}
