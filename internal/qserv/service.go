package qserv

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/qx"
	"repro/internal/target"
)

// ErrQueueFull is returned by Submit when the bounded job queue is at
// capacity — callers should back off and retry (HTTP maps it to 503).
var ErrQueueFull = errors.New("qserv: job queue full")

// ErrStopped is returned by Submit after Stop.
var ErrStopped = errors.New("qserv: service stopped")

// Config sizes the service. Zero values select the defaults noted per
// field.
type Config struct {
	// QueueSize bounds each backend's job queue (default 64). Queues are
	// per backend so a saturated lane cannot starve the others.
	QueueSize int
	// DefaultWorkers is the pool size used when AddBackend is called with
	// workers <= 0 (default 2).
	DefaultWorkers int
	// DefaultShots is applied to gate jobs submitted with Shots <= 0
	// (default 1024).
	DefaultShots int
	// CacheSize bounds the full-artefact compile cache; negative disables
	// caching (default 256 entries).
	CacheSize int
	// PrefixCacheSize bounds the prefix-artefact cache — level 1 of the
	// two-level compile cache, holding per-kernel platform-generic
	// artefacts that survive recalibrations and map/schedule variants.
	// 0 defaults to 4× the resolved CacheSize (prefix artefacts are
	// smaller and shared across variants); negative disables the level.
	PrefixCacheSize int
	// CompileWorkers is the service-wide kernel-compile parallelism
	// budget: a shared semaphore of this many tokens bounds the total
	// number of kernels compiling concurrently across all jobs and
	// backends, and each compile may use up to this many workers for its
	// own kernels. 0 defaults to GOMAXPROCS; negative compiles serially.
	CompileWorkers int
	// Seed is the base of the per-job seed derivation (default 1).
	Seed int64
	// Engine names the qx execution engine DefaultService configures the
	// gate stacks with ("auto", "stabilizer", "optimized", "reference");
	// empty defaults to "auto", which dispatches each compiled circuit
	// to the stabilizer tableau when it is Clifford with
	// Clifford-compatible noise and to the optimized dense engine
	// otherwise — identical seeded counts either way, only the
	// asymptotics change. Individual jobs may still override it per
	// request.
	Engine string
	// Passes is the compiler pass spec DefaultService configures the gate
	// stacks with; empty uses the default pipeline. Individual jobs may
	// still override it per request.
	Passes string
	// RetainJobs bounds how many completed jobs stay queryable; the
	// oldest finished jobs are evicted beyond it (default 4096; negative
	// retains everything — for tests and short-lived services).
	RetainJobs int
	// SessionTTL bounds how long a variational session stays pinned with
	// no bind activity before it lapses (default 15m; negative disables
	// expiry). Expiry is lazy: sessions are swept on session-store
	// access, not by a background timer.
	SessionTTL time.Duration
	// MaxSessions bounds concurrently open variational sessions; opening
	// beyond it evicts the least-recently-used session (default 256;
	// negative removes the bound).
	MaxSessions int
	// Metrics is the registry the service registers its instruments in;
	// nil creates a private one (exposed via Service.Metrics and the
	// GET /metrics endpoint). A registry hosts at most one service —
	// sharing one across services panics on the duplicate families.
	Metrics *obs.Registry
	// TraceRing bounds how many job traces stay queryable via
	// GET /jobs/{id}/trace (default 1024; negative disables tracing).
	TraceRing int
	// Logger receives the service's structured logs — job lifecycle at
	// Info, per-request HTTP logs at Debug — every record keyed by
	// trace_id. Nil discards everything (library default; qservd passes
	// a real logger).
	Logger *slog.Logger
	// DisableMetrics skips instrument registration and all recording.
	// Only the obs-overhead benchmark should set it: with metrics
	// disabled /stats reports zero counters.
	DisableMetrics bool
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 4096
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = 2
	}
	if c.DefaultShots <= 0 {
		c.DefaultShots = 1024
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.PrefixCacheSize == 0 && c.CacheSize > 0 {
		c.PrefixCacheSize = 4 * c.CacheSize
	}
	if c.CompileWorkers == 0 {
		c.CompileWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Engine == "" {
		c.Engine = qx.EngineAuto
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	return c
}

// backendPool couples a backend with its worker lane and its resolved
// instrument handles (nil when metrics are disabled — /stats then
// reports zero counters).
type backendPool struct {
	b       Backend
	workers int
	ch      chan *Job
	met     *poolMetrics
}

// Service is the concurrent accelerator service: bounded per-backend job
// queues feeding worker pools, with a shared two-level compile cache
// (full artefacts + platform-generic prefix artefacts).
type Service struct {
	cfg    Config
	cache  *CompileCache
	prefix *PrefixCache
	env    *CompileEnv
	reg    *obs.Registry
	met    *serviceMetrics
	tracer *obs.Tracer
	log    *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // completed job IDs, oldest first, for retention
	pools    []*backendPool
	byName   map[string]*backendPool
	started  bool
	stopped  bool
	// drained is created by the first Drain/Stop call and closed when all
	// workers have exited; later calls wait on the same channel.
	drained chan struct{}
	// sessions holds the open variational sessions (guarded by mu, like
	// the lifecycle counters below it).
	sessions    map[string]*Session
	sessOpened  uint64
	sessExpired uint64
	sessEvicted uint64

	wg        sync.WaitGroup
	seq       atomic.Uint64
	submitted atomic.Uint64
	binds     atomic.Uint64
	startedAt time.Time
}

// New returns an unstarted service; register backends with AddBackend,
// then call Start.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		jobs:     map[string]*Job{},
		byName:   map[string]*backendPool{},
		sessions: map[string]*Session{},
	}
	if cfg.CacheSize > 0 {
		s.cache = NewCompileCache(cfg.CacheSize)
	}
	if cfg.PrefixCacheSize > 0 {
		s.prefix = NewPrefixCache(cfg.PrefixCacheSize)
	}
	workers := cfg.CompileWorkers
	if workers < 1 {
		workers = 1
	}
	s.env = &CompileEnv{
		Cache:   s.cache,
		Prefix:  s.prefix,
		Gate:    compiler.NewWorkerGate(workers),
		Workers: workers,
	}
	s.reg = cfg.Metrics
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if !cfg.DisableMetrics {
		s.met = newServiceMetrics(s.reg)
		s.registerCollectors()
	}
	ring := cfg.TraceRing
	if ring == 0 {
		ring = 1024
	}
	if ring > 0 {
		s.tracer = obs.NewTracer(ring)
	}
	s.log = cfg.Logger
	if s.log == nil {
		// Discard logs entirely: a level above every slog level makes
		// Enabled fail before any record is built.
		s.log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{
			Level: slog.LevelError + 4,
		}))
	}
	return s
}

// registerCollectors wires the scrape-time mirrors: uptime, per-backend
// queue depth and the shared compile caches' hit/miss/entry counts.
func (s *Service) registerCollectors() {
	s.reg.GaugeFunc("qserv_uptime_seconds", "Seconds since Start.", func() float64 {
		s.mu.Lock()
		startedAt := s.startedAt
		s.mu.Unlock()
		if startedAt.IsZero() {
			return 0
		}
		return time.Since(startedAt).Seconds()
	})
	s.reg.GaugeFunc("qserv_sessions_active", "Open variational sessions.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.sweepSessionsLocked(time.Now())
		return float64(len(s.sessions))
	})
	s.reg.OnCollect(func() {
		s.mu.Lock()
		pools := make([]*backendPool, len(s.pools))
		copy(pools, s.pools)
		s.mu.Unlock()
		for _, p := range pools {
			if p.met != nil {
				p.met.queueDepth.Set(float64(len(p.ch)))
			}
		}
		mirror := func(level string, st CacheStats) {
			s.met.cacheOps.With(level, "hit").Set(float64(st.Hits))
			s.met.cacheOps.With(level, "miss").Set(float64(st.Misses))
			s.met.cacheEntries.With(level).Set(float64(st.Entries))
		}
		if s.cache != nil {
			mirror("full", s.cache.Stats())
		}
		if s.prefix != nil {
			mirror("prefix", s.prefix.Stats())
		}
	})
}

// Metrics exposes the service's metric registry — the one behind
// GET /metrics.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// Tracer exposes the service's trace ring (nil when tracing is
// disabled).
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// Cache exposes the shared full-artefact compile cache (nil when
// disabled).
func (s *Service) Cache() *CompileCache { return s.cache }

// PrefixCache exposes the shared prefix-artefact cache (nil when
// disabled).
func (s *Service) PrefixCache() *PrefixCache { return s.prefix }

// AddBackend registers a backend with its worker-pool size (<= 0 selects
// Config.DefaultWorkers). It must be called before Start.
func (s *Service) AddBackend(b Backend, workers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("qserv: AddBackend after Start")
	}
	if _, dup := s.byName[b.Name()]; dup {
		panic(fmt.Sprintf("qserv: duplicate backend %q", b.Name()))
	}
	if workers <= 0 {
		workers = s.cfg.DefaultWorkers
	}
	// The channel is the backend's bounded job queue: workers pull from
	// it directly, Submit fails fast once it fills.
	p := &backendPool{
		b:       b,
		workers: workers,
		ch:      make(chan *Job, s.cfg.QueueSize),
		met:     s.met.pool(b.Name()),
	}
	s.pools = append(s.pools, p)
	s.byName[b.Name()] = p
}

// Start launches every worker pool.
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("qserv: Start called twice")
	}
	if len(s.pools) == 0 {
		panic("qserv: Start with no backends")
	}
	s.started = true
	s.startedAt = time.Now()
	for _, p := range s.pools {
		for i := 0; i < p.workers; i++ {
			s.wg.Add(1)
			go s.worker(p)
		}
	}
}

// Stop rejects further submissions, drains queued jobs to completion and
// waits for all workers to exit, however long that takes. Deadline-bound
// shutdown paths should prefer Drain.
func (s *Service) Stop() {
	_ = s.Drain(context.Background())
}

// Drain is the graceful-shutdown half of Stop: it immediately rejects
// further submissions (Submit returns ErrStopped), closes every pool's
// queue so workers finish the jobs already admitted, and waits for the
// workers to exit — but only as long as ctx allows. On deadline it
// returns ctx.Err() with workers still running; the drain keeps
// completing in the background, so a subsequent Drain (or Stop) call
// picks up the same wait. Draining a never-started service is a no-op;
// concurrent calls share one drain state.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil
	}
	if !s.stopped {
		s.stopped = true
		for _, p := range s.pools {
			close(p.ch)
		}
		s.drained = make(chan struct{})
		go func(done chan struct{}) {
			s.wg.Wait()
			close(done)
		}(s.drained)
	}
	done := s.drained
	s.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker executes jobs from one pool's lane.
func (s *Service) worker(p *backendPool) {
	defer s.wg.Done()
	for job := range p.ch {
		s.runJob(p, job)
	}
}

// runJob executes one job on its pool's backend, closing the job's
// trace spans at the exact job timestamps (so the root span's duration
// equals the reported latency and queue.wait + run partition it) and
// recording the pool's instruments.
func (s *Service) runJob(p *backendPool, job *Job) {
	job.markRunning()
	submitted, started, _ := job.Times()
	job.queueSpan.EndAt(started)
	root := job.trace.Root()
	runSpan := root.StartChildAt("run", started)
	env := s.env
	if runSpan != nil {
		// Hand the backend a per-job copy of the shared env carrying the
		// run span, so compile/execute phases attach under it.
		jobEnv := *s.env
		jobEnv.Span = runSpan
		env = &jobEnv
	}
	start := time.Now()
	var (
		res *Result
		hit bool
		err error
	)
	if job.sess != nil {
		// Bind sub-job: patch the session's pinned artefact and execute —
		// the compile pipeline is skipped entirely, so it counts as a
		// full-level skip below (the artefact was reused, like a cache
		// hit) and never re-records the original compile's pass metrics.
		res, err = s.runBind(job, env)
		hit = err == nil
	} else {
		res, hit, err = p.b.Run(&job.Req, job.seed, env)
	}
	busy := time.Since(start)
	job.finish(res, hit, err)
	_, _, finished := job.Times()
	runSpan.SetAttr("cache_hit", strconv.FormatBool(hit))
	runSpan.EndAt(finished)
	root.SetAttr("status", string(job.Status()))
	root.EndAt(finished)
	if m := p.met; m != nil {
		m.busy.Add(busy.Seconds())
		m.queueWait.ObserveSeconds(started.Sub(submitted).Nanoseconds())
		m.latency.ObserveSeconds(finished.Sub(submitted).Nanoseconds())
		if err != nil {
			m.failed.Inc()
		} else {
			m.done.Inc()
		}
		// A full-artefact hit skipped the whole pipeline; per-pass
		// metrics aggregate only over jobs that actually compiled, and
		// recordCompile counts prefix-level skips from the report.
		if hit {
			m.fullSkips.Inc()
		}
		if err == nil && res != nil && res.Report != nil {
			if !hit && job.sess == nil {
				m.recordCompile(res.Report.Compile)
			}
			// Execution always ran, cache hit or not.
			if ns := res.Report.ExecNs; ns > 0 {
				m.execSecs.ObserveSeconds(ns)
			}
			// The engine that actually ran the shots — auto dispatch
			// resolved, so the Clifford fast-path hit rate is visible.
			if eng := res.Report.Engine; eng != "" {
				m.m.engineDispatch.With(eng).Inc()
			}
		}
	}
	// Wake waiters only now, so a caller returning from Wait sees the
	// job's spans and metrics complete.
	close(job.done)
	retireStart := time.Now()
	s.retire(job)
	if s.met != nil {
		// Retention bookkeeping runs after the job is already observable
		// as finished, so it is timed as a metric rather than a trace
		// span — the root span's children must sum to the job latency.
		s.met.retireSecs.ObserveSeconds(time.Since(retireStart).Nanoseconds())
	}
	if err != nil {
		s.log.Info("job failed",
			"trace_id", job.TraceID(), "job", job.ID, "backend", p.b.Name(),
			"error", err.Error(), "elapsed_ms", float64(finished.Sub(submitted).Nanoseconds())/1e6)
	} else {
		s.log.Info("job done",
			"trace_id", job.TraceID(), "job", job.ID, "backend", p.b.Name(),
			"cache_hit", hit, "elapsed_ms", float64(finished.Sub(submitted).Nanoseconds())/1e6)
	}
}

// runBind executes one bind sub-job against its session's pinned
// artefact: an O(#symbols) bind-table patch under a "bind" span — the
// fast path that replaces the compile phase — then ordinary execution.
// The bound copy shares the pinned artefact's schedule, mapping and
// report, so per-bind work is proportional to the patched slots, not
// the circuit.
func (s *Service) runBind(job *Job, env *CompileEnv) (*Result, error) {
	sess := job.sess
	span := env.span()
	bspan := span.StartChild("bind")
	bindStart := time.Now()
	bound, err := sess.compiled.BindArtefact(job.bindVals)
	bindDur := time.Since(bindStart)
	if err != nil {
		bspan.SetAttr("error", err.Error())
		bspan.End()
		return nil, err
	}
	bspan.SetAttr("session", sess.ID)
	bspan.SetAttr("symbols", strconv.Itoa(len(job.bindVals)))
	bspan.End()
	if s.met != nil {
		s.met.bindSecs.ObserveSeconds(bindDur.Nanoseconds())
	}
	rep, err := executeCompiled(sess.stack, bound, sess.numQubits, job.Req.Shots, job.seed, span)
	if err != nil {
		return nil, err
	}
	return &Result{Report: rep}, nil
}

// retire records a finished job for retention and evicts the oldest
// completed jobs beyond Config.RetainJobs (queued and running jobs are
// never evicted).
func (s *Service) retire(job *Job) {
	if s.cfg.RetainJobs < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, job.ID)
	for len(s.finished) > s.cfg.RetainJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Submit validates, routes and enqueues a request, returning the tracked
// job. It never blocks: a full queue fails fast with ErrQueueFull.
func (s *Service) Submit(req Request) (*Job, error) {
	pool, err := s.admit(&req)
	if err != nil {
		return nil, err
	}
	return s.enqueue(req, pool, nil, nil)
}

// admit is the admission step every job and session passes: payload and
// override validation, the default shot count, the started/stopped
// checks and routing to a lane whose backend accepts the request's
// device overrides. It fills in req's defaults and returns the lane.
func (s *Service) admit(req *Request) (*backendPool, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	if req.Shots <= 0 {
		req.Shots = s.cfg.DefaultShots
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return nil, errors.New("qserv: service not started")
	}
	if s.stopped {
		return nil, ErrStopped
	}
	pool, err := s.route(req)
	if err != nil {
		return nil, err
	}
	if err := validateDeviceOverrides(req, pool.b); err != nil {
		return nil, err
	}
	return pool, nil
}

// enqueue creates the job for an admitted request — a session bind when
// sess is set — and sends it into its lane without blocking: a full lane
// fails with ErrQueueFull. The job gets its ID, derived seed and trace
// root with the queue.wait span here, and is recorded in the job table
// and the counters.
func (s *Service) enqueue(req Request, pool *backendPool, sess *Session, bindVals map[string]float64) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Drain closes the lanes under mu, so this check keeps the send off
	// a closed channel even when the drain began after admission.
	if s.stopped {
		return nil, ErrStopped
	}
	n := s.seq.Add(1)
	seed := req.Seed
	if seed == 0 {
		// Derive a distinct deterministic seed per job from the base seed
		// and the job sequence number (odd multiplier keeps them unique).
		seed = s.cfg.Seed + int64(n)*2654435761
	}
	job := newJob(fmt.Sprintf("job-%d", n), req, pool, seed)
	job.sess = sess
	job.bindVals = bindVals
	if s.tracer != nil {
		// The trace ID is the job ID; the root span starts at the job's
		// submit instant so its duration matches the reported latency.
		job.trace = s.tracer.StartAt(job.ID, "job", job.submitted)
		root := job.trace.Root()
		root.SetAttr("backend", pool.b.Name())
		if sess != nil {
			root.SetAttr("session", sess.ID)
		}
		if req.Name != "" {
			root.SetAttr("name", req.Name)
		}
		job.queueSpan = root.StartChildAt("queue.wait", job.submitted)
	}
	// Enqueue straight into the backend's bounded lane: no shared
	// dispatcher, so one saturated backend cannot head-of-line block the
	// others.
	select {
	case pool.ch <- job:
	default:
		return nil, ErrQueueFull
	}
	s.jobs[job.ID] = job
	s.submitted.Add(1)
	if s.met != nil {
		s.met.jobsSubmitted.Inc()
	}
	if sess != nil {
		sess.touch(job.submitted)
		s.binds.Add(1)
		if s.met != nil {
			s.met.bindsTotal.Inc()
		}
	}
	s.log.Debug("job submitted",
		"trace_id", job.TraceID(), "job", job.ID, "backend", pool.b.Name(),
		"session", job.Session(), "name", req.Name)
	return job, nil
}

// ErrUnknownBackend distinguishes lookups of unregistered backends
// (HTTP 404) from invalid inputs (HTTP 400).
var ErrUnknownBackend = errors.New("qserv: unknown backend")

// Recalibrate atomically replaces a backend's device calibration: jobs
// already running finish against the old tables, later jobs compile and
// execute against the new ones. The re-calibrated device hashes
// differently, so full-artefact cache entries built against the stale
// tables are never reused, while platform-generic prefix artefacts stay
// live (the prefix passes cannot observe calibration). Returns the
// re-calibrated device.
func (s *Service) Recalibrate(name string, cal *target.Calibration) (*target.Device, error) {
	s.mu.Lock()
	pool, ok := s.byName[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownBackend, name)
	}
	rc, can := pool.b.(Recalibrator)
	if !can {
		return nil, fmt.Errorf("qserv: backend %q does not support live recalibration", name)
	}
	dev, err := rc.Recalibrate(cal)
	if err != nil {
		return nil, err
	}
	if pool.met != nil {
		pool.met.calibReloads.Inc()
	}
	s.log.Info("calibration reloaded", "backend", name, "device_hash", dev.Hash())
	return dev, nil
}

// validateDeviceOverrides checks a request's device target / calibration
// override against the backend it routed to, so invalid overrides are
// rejected at submit time (HTTP 400) instead of failing the job later.
// Request.validate has already vetted the target device itself; what is
// left is backend compatibility: only gate backends take overrides, and
// a bare calibration override needs a calibrated backend device to
// overlay (or an explicit target).
func validateDeviceOverrides(req *Request, b Backend) error {
	if req.Target == nil && req.Calibration == nil {
		return nil
	}
	dp, ok := b.(DeviceProvider)
	if !ok {
		return fmt.Errorf("qserv: backend %q takes no device target or calibration override", b.Name())
	}
	if req.Target == nil && req.Calibration != nil {
		dev := dp.Device()
		if dev.Calibration == nil {
			return fmt.Errorf("qserv: backend %q is uncalibrated; submit a full \"target\" to calibrate it", b.Name())
		}
		if err := dev.WithCalibration(req.Calibration).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// route resolves the request's target pool: by name when given, else the
// first registered backend that accepts the payload.
func (s *Service) route(req *Request) (*backendPool, error) {
	if req.Backend != "" {
		pool, ok := s.byName[req.Backend]
		if !ok {
			return nil, fmt.Errorf("qserv: unknown backend %q", req.Backend)
		}
		if !pool.b.Accepts(req) {
			return nil, fmt.Errorf("qserv: backend %q does not accept this payload", req.Backend)
		}
		return pool, nil
	}
	for _, pool := range s.pools {
		if pool.b.Accepts(req) {
			return pool, nil
		}
	}
	return nil, errors.New("qserv: no backend accepts this payload")
}

// Job looks up a job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Await blocks until the job with the given ID completes or ctx is
// cancelled, returning the job.
func (s *Service) Await(ctx context.Context, id string) (*Job, error) {
	j, ok := s.Job(id)
	if !ok {
		return nil, fmt.Errorf("qserv: unknown job %q", id)
	}
	if err := j.Wait(ctx); err != nil && j.Status() != StatusFailed {
		return j, err
	}
	return j, nil
}

// BackendView is one backend's slice of the GET /backends report: its
// identity and — for gate backends — the full device description behind
// it, calibration included, plus the device content hash clients can use
// to detect re-calibrations.
type BackendView struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"` // "gate" or "accelerator"
	Workers int    `json:"workers"`
	// Device is the hardware target behind a gate backend (topology as
	// an explicit edge list, native gates, timings, calibration).
	Device *target.Device `json:"device,omitempty"`
	// DeviceHash is the device's stable content hash; it changes
	// whenever the device — including its calibration — changes.
	DeviceHash string `json:"device_hash,omitempty"`
}

// Backends describes every registered backend, exposing gate backends'
// devices and calibration data — the discovery half of the target API.
func (s *Service) Backends() []BackendView {
	s.mu.Lock()
	pools := make([]*backendPool, len(s.pools))
	copy(pools, s.pools)
	s.mu.Unlock()
	out := make([]BackendView, 0, len(pools))
	for _, p := range pools {
		bv := BackendView{Name: p.b.Name(), Kind: "accelerator", Workers: p.workers}
		if dp, ok := p.b.(DeviceProvider); ok {
			bv.Kind = "gate"
			bv.Device = dp.Device()
			bv.DeviceHash = bv.Device.Hash()
		}
		out = append(out, bv)
	}
	return out
}

// PassStats is one compiler pass's aggregated slice of the /stats report:
// how often the pass ran across this backend's compiles, the wall time it
// consumed, and the gate-count work it did.
type PassStats struct {
	Pass    string  `json:"pass"`
	Runs    uint64  `json:"runs"`
	TotalMs float64 `json:"total_ms"`
	AvgUs   float64 `json:"avg_us"`
	// P50Us/P95Us/P99Us are latency percentiles estimated from a
	// geometric-bucket histogram of the pass's wall times, so tail
	// compile time is visible per backend and pass, not just averages.
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`
	// GatesIn and GatesOut sum the circuit sizes entering and leaving
	// the pass across all runs.
	GatesIn    uint64 `json:"gates_in"`
	GatesOut   uint64 `json:"gates_out"`
	AddedSwaps uint64 `json:"added_swaps,omitempty"`
}

// BackendStats is one backend's slice of the /stats report.
type BackendStats struct {
	Name       string `json:"name"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	JobsDone   uint64 `json:"jobs_done"`
	JobsFailed uint64 `json:"jobs_failed"`
	CacheHits  uint64 `json:"cache_hits"`
	// CompileCacheSkips counts jobs whose whole compile pipeline was
	// skipped by a full-artefact cache hit (numerically CacheHits, spelt
	// out so the pass-latency hit-rate math is auditable: per-pass Runs
	// lag JobsDone by exactly this many jobs). Mirrored to Prometheus as
	// qserv_compile_cache_skips_total{level="full"}.
	CompileCacheSkips uint64 `json:"compile_cache_skips"`
	// PrefixHits counts kernels this backend's compiles served from the
	// prefix-artefact cache — compiles that re-ran only the variant
	// suffix (map/schedule/assemble) against cached decompose/optimize
	// output. Full-artefact cache hits skip compilation entirely and are
	// counted in CacheHits instead.
	PrefixHits uint64  `json:"prefix_hits"`
	BusyMs     float64 `json:"busy_ms"`
	// JobsPerSec is completed jobs divided by service uptime — the
	// per-backend throughput figure.
	JobsPerSec float64 `json:"jobs_per_sec"`
	// CompilePasses breaks the backend's compile time down by pipeline
	// pass (absent for backends that never compiled).
	CompilePasses []PassStats `json:"compile_passes,omitempty"`
}

// Stats is the service-wide instrumentation snapshot.
type Stats struct {
	UptimeSec     float64    `json:"uptime_sec"`
	QueueDepth    int        `json:"queue_depth"`
	QueueCap      int        `json:"queue_cap"`
	JobsSubmitted uint64     `json:"jobs_submitted"`
	JobsDone      uint64     `json:"jobs_done"`
	JobsFailed    uint64     `json:"jobs_failed"`
	CacheHitRate  float64    `json:"cache_hit_rate"`
	Cache         CacheStats `json:"cache"`
	// PrefixHitRate and PrefixCache report the prefix-artefact level of
	// the two-level compile cache: hits are kernels whose platform-
	// generic prefix (decompose/optimize) was fetched instead of
	// recompiled, so misses only pay the map/schedule/assemble suffix.
	PrefixHitRate float64        `json:"prefix_hit_rate"`
	PrefixCache   CacheStats     `json:"prefix_cache"`
	Backends      []BackendStats `json:"backends"`
	// Sessions reports the variational-session layer: open sessions,
	// lifecycle churn and binds streamed through the fast path.
	Sessions SessionStats `json:"sessions"`
}

// Stats returns a point-in-time snapshot of queue depth, per-backend
// throughput and cache effectiveness.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	pools := make([]*backendPool, len(s.pools))
	copy(pools, s.pools)
	startedAt := s.startedAt
	s.sweepSessionsLocked(time.Now())
	sessions := SessionStats{
		Active:  len(s.sessions),
		Opened:  s.sessOpened,
		Expired: s.sessExpired,
		Evicted: s.sessEvicted,
		Binds:   s.binds.Load(),
	}
	s.mu.Unlock()

	uptime := time.Since(startedAt)
	if startedAt.IsZero() {
		uptime = 0
	}
	st := Stats{
		UptimeSec:     uptime.Seconds(),
		JobsSubmitted: s.submitted.Load(),
		Sessions:      sessions,
	}
	for _, p := range pools {
		st.QueueDepth += len(p.ch)
		st.QueueCap += cap(p.ch)
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
		st.CacheHitRate = st.Cache.HitRate()
	}
	if s.prefix != nil {
		st.PrefixCache = s.prefix.Stats()
		st.PrefixHitRate = st.PrefixCache.HitRate()
	}
	for _, p := range pools {
		bs := BackendStats{
			Name:       p.b.Name(),
			Workers:    p.workers,
			QueueDepth: len(p.ch),
		}
		// /stats is a thin view over the registry-owned instruments the
		// workers record into; with metrics disabled the counters stay 0.
		if m := p.met; m != nil {
			bs.JobsDone = counterUint(m.done)
			bs.JobsFailed = counterUint(m.failed)
			bs.CacheHits = counterUint(m.fullSkips)
			bs.CompileCacheSkips = bs.CacheHits
			bs.PrefixHits = counterUint(m.prefixSkips)
			bs.BusyMs = m.busy.Value() * 1e3
			bs.CompilePasses = m.passStats()
		}
		st.JobsDone += bs.JobsDone
		st.JobsFailed += bs.JobsFailed
		if sec := uptime.Seconds(); sec > 0 {
			bs.JobsPerSec = float64(bs.JobsDone) / sec
		}
		st.Backends = append(st.Backends, bs)
	}
	return st
}
