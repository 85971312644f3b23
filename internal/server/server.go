// Package server is nanocached's serving layer: a long-running HTTP/JSON
// daemon in front of the experiment engine, so consumers of the
// reproduction (dashboards, CI, the examples) fetch figures, tables, raw
// runs and invariant reports without re-running whole sweeps — the paper's
// gated-precharging observation ("don't pay for what recent history says
// you won't use") applied one layer up, at the result-serving level.
//
// Three mechanisms keep the daemon cheap under load:
//
//   - an LRU result cache keyed by canonical digests of (lab options,
//     endpoint, parameters) or RunConfig.Digest, holding fully rendered
//     JSON payloads, so repeat requests are byte-identical map lookups;
//   - single-flight collapse (flight.go): any number of concurrent
//     identical requests share one computation, whose context is
//     refcounted by waiter count — abandoned work is cancelled;
//   - per-class admission control (admission.go) in front of the PR-1
//     parallel Lab: cache misses are classified cheap (analytic builders)
//     or cold (architectural simulation) and wait in separate bounded
//     FIFO queues for one of Config.MaxInflight worker slots, cheap first.
//     A full class queue sheds with 429 + Retry-After instead of queueing
//     without bound, so cold overload degrades cold traffic only — cached
//     hits bypass the controller entirely and cheap misses overtake queued
//     sweeps.
//
// Per-request deadlines propagate as contexts into the architectural runs
// (experiments.RunCtx), /metrics exposes plaintext counters and latency
// quantiles (internal/stats), and Close drains gracefully: new work is
// refused with 503 while in-flight computations finish or abort.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nanocache/internal/cluster"
	"nanocache/internal/distsweep"
	"nanocache/internal/experiments"
	"nanocache/internal/jobs"
	"nanocache/internal/store"
	"nanocache/internal/verify"
)

// Config parameterizes the daemon.
type Config struct {
	// Options is the lab configuration every figure endpoint serves from.
	// The zero value means experiments.DefaultOptions().
	Options experiments.Options
	// CacheEntries bounds the LRU result cache (default 256 entries).
	CacheEntries int
	// MaxInflight bounds concurrently executing computations; further
	// cache misses wait in their class's admission queue. 0 means one per
	// CPU.
	MaxInflight int
	// RequestTimeout bounds each request (0 = no server-side deadline;
	// client contexts still propagate).
	RequestTimeout time.Duration

	// CheapQueue bounds the cheap-class admission queue (analytic builders:
	// no simulation). Requests beyond the bound are shed with 429.
	// 0 means 256.
	CheapQueue int
	// ColdQueue bounds the cold-class admission queue (architectural runs
	// and sweeps). Requests beyond the bound are shed with 429. 0 means 32.
	ColdQueue int
	// RetryAfter is the hint returned with shed responses (Retry-After
	// header, rounded up to whole seconds). 0 means 1s.
	RetryAfter time.Duration

	// StoreDir enables the durable result tier: rendered payloads are
	// written behind the LRU into a content-addressed on-disk store
	// (internal/store), so cached results survive restarts and warm the LRU
	// back up through read-through promotion. Empty = memory only.
	StoreDir string
	// StoreMaxBytes bounds the on-disk store (0 = unbounded); oldest
	// records are garbage-collected first.
	StoreMaxBytes int64
	// StoreFsync fsyncs every store and job-record write (power-loss
	// durability at a write-latency cost).
	StoreFsync bool

	// Cluster, when non-nil, makes this daemon one member of a
	// consistent-hash cluster (internal/cluster): the miss path read-throughs
	// from the key's owner peers before recomputing, fresh results replicate
	// write-behind to the owners, and anti-entropy converges stores after a
	// rejoin. Cluster.OptionsDigest is filled in from Options — results are
	// only exchanged between nodes serving identical lab options.
	Cluster *cluster.Config

	// DistSweepOff disables distributed sweep execution, which is otherwise
	// on by default for clustered daemons: a job's planned sweep points fan
	// out to the ring owner of each point's checkpoint key (POST
	// /v1/peer/compute) instead of all computing on the accepting node, with
	// retry-then-local fallback and hedged straggler re-dispatch
	// (internal/distsweep). Meaningless without Cluster.
	DistSweepOff bool

	// SweepBatchLinger overrides how long the sweep scheduler holds the
	// first point bound for a peer before cutting a batched envelope
	// (distsweep.Config.BatchLinger: 0 = the scheduler's 2ms default,
	// negative = ship every point as its own envelope). Tests raise it to
	// make batch formation deterministic.
	SweepBatchLinger time.Duration

	// Jobs bounds concurrently executing async jobs (default 1).
	Jobs int
	// JobQueue bounds the async submission queue (default 4096); submissions
	// beyond it are shed with 429 + Retry-After.
	JobQueue int
	// JobRetries is the per-sweep-point transient-failure retry budget for
	// async jobs (default 2; exponential backoff with jitter).
	JobRetries int
	// JobBackoff is the base retry backoff (default 250ms).
	JobBackoff time.Duration
}

// Server is the daemon. Create with New, expose with Handler, stop with
// Close. A Server is safe for concurrent use by many HTTP requests.
type Server struct {
	cfg        Config
	lab        *experiments.Lab
	optsDigest string
	mux        *http.ServeMux
	cache      *lru
	store      *store.Store // durable second tier; nil without StoreDir
	jobs       *jobs.Manager
	cluster    *cluster.Cluster     // peer tier; nil on a single-node daemon
	dist       *distsweep.Scheduler // sweep fan-out; nil unless clustered with DistSweep on
	clusterOff sync.Once
	flights    *flightGroup
	adm        *admission
	m          *metricSet

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool

	// workMu orders wg.Add against Close's wg.Wait: once closed is set
	// (under workMu) no further computation can register, so Wait cannot
	// race an Add from a request that slipped past the drain gate.
	workMu sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// startWork registers one background computation with the drain WaitGroup.
// It fails exactly when Close has begun, in which case the caller must not
// start the computation.
func (s *Server) startWork() bool {
	s.workMu.Lock()
	defer s.workMu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	return true
}

// New validates the configuration and builds a serving-ready daemon.
func New(cfg Config) (*Server, error) {
	if cfg.Options.Instructions == 0 {
		// Zero-valued options would fail lab validation anyway; treat them
		// as "use the full evaluation defaults".
		cfg.Options = experiments.DefaultOptions()
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.CacheEntries < 0 {
		return nil, fmt.Errorf("server: negative cache size %d", cfg.CacheEntries)
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("server: negative max-inflight %d", cfg.MaxInflight)
	}
	if cfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("server: negative request timeout %v", cfg.RequestTimeout)
	}
	if cfg.CheapQueue == 0 {
		cfg.CheapQueue = 256
	}
	if cfg.CheapQueue < 0 {
		return nil, fmt.Errorf("server: negative cheap-queue bound %d", cfg.CheapQueue)
	}
	if cfg.ColdQueue == 0 {
		cfg.ColdQueue = 32
	}
	if cfg.ColdQueue < 0 {
		return nil, fmt.Errorf("server: negative cold-queue bound %d", cfg.ColdQueue)
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.RetryAfter < 0 {
		return nil, fmt.Errorf("server: negative retry-after %v", cfg.RetryAfter)
	}
	if cfg.Jobs == 0 {
		cfg.Jobs = 1
	}
	if cfg.Jobs < 0 {
		return nil, fmt.Errorf("server: negative job workers %d", cfg.Jobs)
	}
	if cfg.JobRetries == 0 {
		cfg.JobRetries = 2
	}
	if cfg.JobRetries < 0 {
		return nil, fmt.Errorf("server: negative job retries %d", cfg.JobRetries)
	}
	if cfg.JobBackoff == 0 {
		cfg.JobBackoff = 250 * time.Millisecond
	}
	if cfg.JobBackoff < 0 {
		return nil, fmt.Errorf("server: negative job backoff %v", cfg.JobBackoff)
	}
	lab, err := experiments.NewLab(cfg.Options)
	if err != nil {
		return nil, err
	}
	digest, err := cfg.Options.Digest()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		lab:        lab,
		optsDigest: digest,
		cache:      newLRU(cfg.CacheEntries),
		flights:    newFlightGroup(ctx),
		adm: newAdmission(cfg.MaxInflight,
			[numClasses]int{classCheap: cfg.CheapQueue, classCold: cfg.ColdQueue},
			[numClasses]uint64{classCheap: 1, classCold: coldCostEstimate(cfg.Options)},
			cfg.RetryAfter),
		m:          newMetricSet(),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	var recordDir string
	var blobs jobs.Blobs
	if cfg.StoreDir != "" {
		st, err := store.Open(store.Config{
			Dir:      cfg.StoreDir,
			MaxBytes: cfg.StoreMaxBytes,
			Fsync:    cfg.StoreFsync,
			Schema:   storeSchema,
			Options:  digest,
		})
		if err != nil {
			cancel()
			return nil, err
		}
		s.store = st
		blobs = st
		recordDir = filepath.Join(cfg.StoreDir, "jobs")
	}
	// The cluster (and on top of it the distributed sweep scheduler) must
	// exist before the job orchestrator: Resume can re-queue jobs whose
	// points start dispatching through the runner immediately.
	if cfg.Cluster != nil {
		cc := *cfg.Cluster
		cc.OptionsDigest = digest
		cl, err := cluster.New(cc, clusterBackend{s})
		if err != nil {
			cancel()
			return nil, err
		}
		s.cluster = cl
		if !cfg.DistSweepOff {
			ds, err := distsweep.New(distsweep.Config{
				Cluster:     cl,
				Transport:   cc.Transport,
				HedgeAfter:  cc.HedgeAfter,
				BatchLinger: cfg.SweepBatchLinger,
			})
			if err != nil {
				s.clusterOff.Do(cl.Close)
				cancel()
				return nil, err
			}
			s.dist = ds
		}
	}
	pointParallelism := 0 // manager default: sequential points
	if s.dist != nil {
		// Distribution only helps if the coordinator keeps every worker's
		// per-peer dispatch window full; four in flight per member gives the
		// batcher enough concurrently queued points to coalesce real batches
		// without flooding anyone's cold admission queue (each batch still
		// waits in it exactly once).
		pointParallelism = 4 * len(cfg.Cluster.Peers)
	}
	jm, err := jobs.NewManager(jobs.Config{
		Workers:          cfg.Jobs,
		Retries:          cfg.JobRetries,
		Backoff:          cfg.JobBackoff,
		PointParallelism: pointParallelism,
		Queue:            cfg.JobQueue,
		Runner:           s.runJobPoint,
		Planner:          s.planJob,
		Blobs:            blobs,
		RecordDir:        recordDir,
		Fsync:            cfg.StoreFsync,
	})
	if err != nil {
		if s.cluster != nil {
			s.clusterOff.Do(s.cluster.Close)
		}
		cancel()
		return nil, err
	}
	s.jobs = jm
	if _, err := jm.Resume(); err != nil {
		jm.Close(context.Background())
		if s.cluster != nil {
			s.clusterOff.Do(s.cluster.Close)
		}
		cancel()
		return nil, err
	}
	s.routes()
	return s, nil
}

// storeSchema is the durable store's payload schema generation. Bump it
// when the rendered-result format changes incompatibly: old records then
// read as misses instead of being served with a stale shape.
const storeSchema = 1

// coldCostEstimate derives a cold miss's cost in simulated-kiloinstruction
// units from the lab options the server's digest pins: a figure endpoint
// typically fans out into one sweep (baseline + every threshold) per
// configured benchmark, each run simulating Options.Instructions. It is an
// estimate for accounting, not a scheduling input — admission only needs
// the class, but /metrics can then report how much simulated work the
// admitted traffic bought.
func coldCostEstimate(opts experiments.Options) uint64 {
	runs := uint64(len(opts.BenchmarkList())) * uint64(len(opts.Thresholds)+1)
	cost := runs * opts.Instructions / 1000
	if cost == 0 {
		cost = 1
	}
	return cost
}

// Store exposes the durable tier (tests, warm-up tooling); nil when the
// server runs memory-only.
func (s *Server) Store() *store.Store { return s.store }

// Jobs exposes the async job orchestrator.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Lab exposes the underlying memoized lab (progress logging, tests).
func (s *Server) Lab() *experiments.Lab { return s.lab }

// OptionsDigest returns the lab-options fingerprint cache keys embed.
func (s *Server) OptionsDigest() string { return s.optsDigest }

// Metrics returns a snapshot of the serving counters.
func (s *Server) Metrics() MetricsSnapshot {
	return s.m.snapshot(s.cache, s.store, s.jobs, s.adm, s.cluster, s.dist)
}

// Draining reports whether Close has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains the daemon: new requests are refused with 503 while
// in-flight computations finish. The job orchestrator shuts down first —
// running jobs are interrupted at their current sweep point, and their
// checkpoints and queue records are persisted so the next boot resumes them
// — then the HTTP-side flights drain. ctx bounds the whole wait; on expiry
// every outstanding computation is cancelled (context-aware runs abort
// within a few thousand simulated cycles) and Close returns ctx.Err().
func (s *Server) Close(ctx context.Context) error {
	s.draining.Store(true)
	s.workMu.Lock()
	s.closed = true
	s.workMu.Unlock()
	// Stop the cluster's background goroutines (replication worker,
	// anti-entropy loop) last, after the flights drain: a draining compute may
	// still queue a replication push, which then lands in a buffered channel
	// nobody reads — harmless, the owners' next sweep repairs the gap.
	if s.cluster != nil {
		defer s.clusterOff.Do(s.cluster.Close)
	}
	jobsErr := s.jobs.Close(ctx)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return jobsErr
	case <-ctx.Done():
		s.baseCancel()
		return ctx.Err()
	}
}

// Handler returns the daemon's HTTP handler (instrumentation included).
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// routes wires the endpoint table.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/options", s.handleOptions)
	s.mux.HandleFunc("GET /v1/figures", s.handleFigureIndex)
	s.mux.HandleFunc("GET /v1/figures/{name}", s.handleFigure)
	s.mux.HandleFunc("GET /v1/table3", s.handleTable3)
	s.mux.HandleFunc("GET /v1/verify", s.handleVerify)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	if s.cluster != nil {
		s.mux.HandleFunc("GET "+cluster.PathObject, s.handlePeerObjectGet)
		s.mux.HandleFunc("PUT "+cluster.PathObject, s.handlePeerObjectPut)
		s.mux.HandleFunc("GET "+cluster.PathManifest, s.handlePeerManifest)
		// The worker side of distributed sweeps is served whenever clustered,
		// independent of this node's own DistSweepOff: disabling dispatch on
		// one member must not make it refuse work from coordinators.
		s.mux.HandleFunc("POST "+distsweep.PathCompute, s.handlePeerCompute)
		s.mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	}
}

// instrument wraps the mux with the request counters, the latency recorder,
// the per-request deadline and the drain gate.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.m.requests.Add(1)
		s.m.inflight.Add(1)
		defer func() {
			s.m.inflight.Add(-1)
			s.m.latency.Observe(time.Since(start))
		}()
		if s.draining.Load() && r.URL.Path != "/metrics" {
			s.m.rejected.Add(1)
			writeJSONError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// --- plumbing -------------------------------------------------------------

// writeJSONError renders {"error": msg}.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(b, '\n'))
}

// writePayload serves a rendered JSON payload with its cache disposition.
func writePayload(w http.ResponseWriter, payload []byte, disposition string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Nanocache", disposition)
	w.Write(payload)
}

// lookup consults both cache tiers: the LRU first, then the durable store,
// promoting store hits into the LRU (read-through) so a rebooted daemon
// warms back up one touch at a time. The returned disposition is "hit"
// (LRU) or "store".
func (s *Server) lookup(key string) (payload []byte, disposition string, ok bool) {
	if payload, ok := s.cache.Get(key); ok {
		s.m.hits.Add(1)
		return payload, "hit", true
	}
	if s.store != nil {
		if payload, ok := s.store.Get(key); ok {
			s.m.storeHits.Add(1)
			s.cache.Put(key, payload)
			return payload, "store", true
		}
	}
	return nil, "", false
}

// publish installs a rendered payload in both tiers: synchronously in the
// LRU, and behind it in the durable store (write-behind: callers publish
// after resolving their waiters, so the disk write never blocks a
// response).
func (s *Server) publish(key string, payload []byte) {
	s.cache.Put(key, payload)
	if s.store != nil {
		s.store.Put(key, payload)
	}
}

// serveCached is every expensive endpoint's spine: two-tier cache lookup,
// single-flight collapse, class-aware admission, deadline-aware waiting.
// class decides which admission queue a miss waits in; hits never reach the
// controller.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string,
	class reqClass, build func(ctx context.Context) (any, error)) {
	key = key + "@" + s.optsDigest
	if payload, disposition, ok := s.lookup(key); ok {
		writePayload(w, payload, disposition)
		return
	}
	s.m.misses.Add(1)
	fl, created := s.flights.join(key)
	if created {
		// Double-check the LRU: another flight may have published between
		// our miss and our join, and rebuilding a non-memoized /v1/run
		// because of that window would waste a whole architectural run.
		if payload, ok := s.cache.Get(key); ok {
			s.flights.forget(key, fl)
			fl.finish(payload, nil)
		} else if s.startWork() {
			go s.compute(fl, key, class, build)
		} else {
			// Close began after this request passed the drain gate; refuse
			// rather than start work the drain would never wait for.
			s.flights.forget(key, fl)
			fl.finish(nil, context.Canceled)
		}
	}
	select {
	case <-fl.done:
		if fl.err != nil {
			s.failRequest(w, fl.err)
			return
		}
		disposition := fl.via // "peer" when a cluster read-through answered
		if disposition == "" {
			disposition = "miss"
		}
		writePayload(w, fl.val, disposition)
	case <-r.Context().Done():
		s.flights.leave(key, fl)
		s.m.timeouts.Add(1)
		writeJSONError(w, http.StatusGatewayTimeout,
			"request deadline exceeded while computing; retry to re-attach")
	}
}

// compute runs one collapsed computation in the background, gated by the
// per-class admission controller, and publishes the rendered payload to the
// LRU. An admission refusal (class queue full) resolves the flight with an
// errShed that every waiter sees as 429.
func (s *Server) compute(fl *flight, key string, class reqClass,
	build func(ctx context.Context) (any, error)) {
	defer s.wg.Done()
	// Peer read-through sits between the cache tiers and the admission-gated
	// compute: an owner peer that already paid for this result serves verified
	// bytes for a round-trip, so the fetch skips the admission queue — it
	// costs no simulation. Only a whole-cluster miss falls through to compute.
	if s.cluster != nil {
		if payload, _, ok := s.cluster.Fetch(fl.ctx, key); ok {
			s.cache.Put(key, payload)
			s.flights.forget(key, fl)
			fl.via = "peer"
			fl.finish(payload, nil)
			if s.store != nil {
				s.store.Put(key, payload)
			}
			return
		}
	}
	if err := s.adm.acquire(fl.ctx, class); err != nil {
		s.flights.forget(key, fl)
		fl.finish(nil, err)
		return
	}
	defer s.adm.release()
	s.m.computes.Add(1)
	v, err := build(fl.ctx)
	if err == nil {
		var payload []byte
		payload, err = verify.MarshalGolden(v)
		if err == nil {
			s.cache.Put(key, payload)
			s.flights.forget(key, fl)
			// Write-behind replication: the owners get a copy so the rest of
			// the cluster never recomputes this key. Queued, never blocking,
			// and queued before the waiters resolve, so a FlushReplication
			// issued after the response has the push to wait for.
			if s.cluster != nil {
				s.cluster.Replicate(key, payload)
			}
			fl.finish(payload, nil)
			// Write-behind into the durable tier: waiters are already
			// resolved, so the disk write costs no request latency. The
			// drain WaitGroup still covers us (wg.Done is deferred), so
			// Close cannot complete with this write in flight.
			if s.store != nil {
				s.store.Put(key, payload)
			}
			return
		}
	}
	s.flights.forget(key, fl)
	fl.finish(nil, err)
}

// failRequest maps a computation error to a status code.
func (s *Server) failRequest(w http.ResponseWriter, err error) {
	var bad badParamError
	var shed errShed
	switch {
	case errors.As(err, &bad):
		writeJSONError(w, http.StatusBadRequest, bad.Error())
	case errors.As(err, &shed):
		// Load shedding: the class queue is full. 429 with a Retry-After
		// hint (whole seconds, rounded up) and a distinct disposition
		// header so load generators can tell sheds from errors cheaply.
		secs := int64((shed.retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		w.Header().Set("X-Nanocache", "shed")
		writeJSONError(w, http.StatusTooManyRequests, shed.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if s.draining.Load() {
			writeJSONError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		s.m.timeouts.Add(1)
		writeJSONError(w, http.StatusGatewayTimeout, "computation cancelled: "+err.Error())
	default:
		s.m.errors.Add(1)
		writeJSONError(w, http.StatusInternalServerError, err.Error())
	}
}

// --- handlers -------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.render(w, s.cache, s.store, s.jobs, s.adm, s.cluster, s.dist)
}

func (s *Server) handleOptions(w http.ResponseWriter, _ *http.Request) {
	b, err := verify.MarshalGolden(map[string]any{
		"options": s.cfg.Options,
		"digest":  s.optsDigest,
	})
	if err != nil {
		s.m.errors.Add(1)
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writePayload(w, b, "static")
}

func (s *Server) handleFigureIndex(w http.ResponseWriter, _ *http.Request) {
	index := map[string]any{
		"figures":        figureRegistry,
		"names":          figureNames(),
		"options_digest": s.optsDigest,
	}
	b, err := verify.MarshalGolden(index)
	if err != nil {
		s.m.errors.Add(1)
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writePayload(w, b, "static")
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	spec, ok := figureRegistry[name]
	if !ok {
		writeJSONError(w, http.StatusNotFound, fmt.Sprintf(
			"unknown figure %q (known: %s)", name, strings.Join(figureNames(), ", ")))
		return
	}
	q := r.URL.Query()
	key, err := canonicalFigureKey(name, spec, q)
	if err != nil {
		s.failRequest(w, err)
		return
	}
	s.serveCached(w, r, "figure|"+key, spec.class(), func(ctx context.Context) (any, error) {
		return spec.build(ctx, s.lab, q)
	})
}

func (s *Server) handleTable3(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, "figure|table3", classCheap, func(ctx context.Context) (any, error) {
		return experiments.Table3()
	})
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	full := false
	switch v := r.URL.Query().Get("full"); v {
	case "", "0", "false":
	case "1", "true":
		full = true
	default:
		writeJSONError(w, http.StatusBadRequest, "bad full value "+v)
		return
	}
	key := fmt.Sprintf("verify|full=%t", full)
	s.serveCached(w, r, key, classCold, func(ctx context.Context) (any, error) {
		subject, err := verify.Collect(s.lab, verify.CollectConfig{SkipDeterminism: !full})
		if err != nil {
			return nil, err
		}
		return verify.Check(subject), nil
	})
}

// maxRunBody bounds POST /v1/run bodies; a RunConfig is a few hundred bytes.
const maxRunBody = 1 << 20

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBody))
	dec.DisallowUnknownFields()
	var cfg experiments.RunConfig
	if err := dec.Decode(&cfg); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad run config: "+err.Error())
		return
	}
	digest, err := cfg.Digest()
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveCached(w, r, "run|"+digest, classCold, func(ctx context.Context) (any, error) {
		return experiments.RunCtx(ctx, cfg)
	})
}
