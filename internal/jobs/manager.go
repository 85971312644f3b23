// Package jobs is nanocached's asynchronous execution layer: a durable,
// restart-safe orchestrator for long experiment sweeps that cannot live
// inside one HTTP request timeout. A job is submitted as a Spec, planned
// into checkpointable sweep points, and executed by a bounded worker pool;
// every completed point is persisted to a content-addressed checkpoint
// store (internal/store) the moment it finishes, so a killed daemon resumes
// a Figure-8 threshold sweep from its last completed point instead of
// recomputing the morning's work.
//
// Lifecycle (state.go): submit → queued → running → done/failed/cancelled,
// with running → queued on drain interruption. Transient point failures
// retry in place with exponential backoff plus jitter; cancellation and
// drain propagate as context cancellation into the architectural runs.
// Progress (completed-point fraction plus an ETA extrapolated from this
// attempt's pace) streams to subscribers, which the serving layer exposes
// as an SSE feed.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math/big"
	"sync"
	"time"

	"nanocache/internal/experiments"
	"nanocache/internal/stats"
)

// Config parameterizes a Manager.
type Config struct {
	// Workers bounds concurrently running jobs (default 1: one heavy sweep
	// at a time; the lab already parallelizes inside each point).
	Workers int
	// Retries is the per-point transient-failure retry budget (default 0:
	// fail on first error). Context cancellation is never retried.
	Retries int
	// Backoff is the base retry delay (default 100ms), doubled per attempt
	// up to MaxBackoff (default 5s), with up to 50% random jitter so
	// synchronized retries do not stampede.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// PointParallelism fans a single job's points across this many workers
	// (default 1: sequential points, the crispest checkpoint semantics).
	// The fan-out reuses the experiment pool's scheduler, so first-error
	// cancellation and bounded width behave exactly like a figure sweep.
	PointParallelism int
	// Queue bounds the submission queue (default 4096). Submissions beyond
	// the bound fail with ErrQueueFull, which the serving layer maps onto
	// the same 429 + Retry-After shape as admission shedding.
	Queue int
	// Runner overrides per-point execution (nil = call Point.Run locally).
	// The serving layer plugs the distributed sweep dispatcher in here: the
	// runner may compute the point anywhere, as long as it returns the same
	// bytes Point.Run would have produced, plus the name of the node that
	// computed them (recorded in Job.Points). Retries and checkpointing wrap
	// the runner exactly as they wrap a local run.
	Runner func(ctx context.Context, plan *Plan, pt Point) (payload []byte, node string, err error)
	// Planner turns specs into plans. Required.
	Planner Planner
	// Blobs is the checkpoint store (nil = in-process map; checkpoints then
	// survive retries but not restarts).
	Blobs Blobs
	// RecordDir persists one JSON record per job for restart recovery
	// ("" = records live only in memory).
	RecordDir string
	// Fsync forces record writes to disk before rename (matches the store's
	// fsync option).
	Fsync bool
}

// Manager orchestrates jobs. Create with NewManager, recover persisted jobs
// with Resume, stop with Close. Safe for concurrent use.
type Manager struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	blobs  Blobs
	queue  chan string
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*jobRec
	order    []string          // submission/recovery order, for List
	byResult map[string]string // resultKey → live job id (dedupe)
	closed   bool
	subs     int64 // next subscriber token

	queueWait *stats.Latency

	hookMu    sync.Mutex
	pointHook func(ctx context.Context, j Job)
}

// jobRec is the live, mutex-guarded state of one job.
type jobRec struct {
	id          string
	spec        Spec
	state       State
	errMsg      string
	created     time.Time
	enqueued    time.Time
	started     time.Time
	finished    time.Time
	attempts    int
	totalPoints int
	donePoints  int
	pointNodes  map[string]string // point key → node that computed it
	resultKey   string
	queueWait   time.Duration
	seq         int64
	cancelReq   bool
	cancelRun   context.CancelFunc
	waiters     map[int64]chan Update
	// writeMu serializes the job's record writes; see persist.
	writeMu sync.Mutex
}

// Submission errors.
var (
	ErrUnknownJob = fmt.Errorf("jobs: unknown job")
	ErrTerminal   = fmt.Errorf("jobs: job already terminal")
	ErrClosed     = fmt.Errorf("jobs: manager closed")
	ErrQueueFull  = fmt.Errorf("jobs: queue full")
)

// NewManager validates the configuration and starts the worker pool.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Planner == nil {
		return nil, fmt.Errorf("jobs: nil planner")
	}
	if cfg.Workers < 0 || cfg.Retries < 0 || cfg.PointParallelism < 0 {
		return nil, fmt.Errorf("jobs: negative workers/retries/parallelism")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.PointParallelism == 0 {
		cfg.PointParallelism = 1
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Queue == 0 {
		cfg.Queue = 4096
	}
	if cfg.Queue < 0 {
		return nil, fmt.Errorf("jobs: negative queue bound")
	}
	blobs := cfg.Blobs
	if blobs == nil {
		blobs = newMemBlobs()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		blobs:     blobs,
		queue:     make(chan string, cfg.Queue),
		jobs:      make(map[string]*jobRec),
		byResult:  make(map[string]string),
		queueWait: stats.NewLatency(),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m, nil
}

// SetPointHook installs a callback invoked after every checkpointed point
// (with the job's context and a fresh snapshot). Test seam: integration
// tests use it to interrupt a job deterministically between sweep points.
func (m *Manager) SetPointHook(fn func(ctx context.Context, j Job)) {
	m.hookMu.Lock()
	m.pointHook = fn
	m.hookMu.Unlock()
}

// Submit plans and enqueues a job. Submitting a spec whose plan resolves to
// the same result key as a live (queued or running) job returns that job
// instead of duplicating the work — the async analogue of the serving
// layer's single-flight collapse.
func (m *Manager) Submit(spec Spec) (Job, error) {
	plan, err := m.cfg.Planner(spec)
	if err != nil {
		return Job{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Job{}, ErrClosed
	}
	if id, ok := m.byResult[plan.ResultKey]; ok {
		if rec := m.jobs[id]; rec != nil && !rec.state.Terminal() {
			j := m.snapshotLocked(rec)
			m.mu.Unlock()
			return j, nil
		}
	}
	now := time.Now()
	rec := &jobRec{
		id:          m.newIDLocked(),
		spec:        spec,
		state:       StateQueued,
		created:     now,
		enqueued:    now,
		totalPoints: len(plan.Points),
		resultKey:   plan.ResultKey,
		waiters:     make(map[int64]chan Update),
	}
	select {
	case m.queue <- rec.id:
	default:
		m.mu.Unlock()
		return Job{}, fmt.Errorf("%w (%d pending)", ErrQueueFull, cap(m.queue))
	}
	m.jobs[rec.id] = rec
	m.order = append(m.order, rec.id)
	m.byResult[rec.resultKey] = rec.id
	j := m.snapshotLocked(rec)
	m.mu.Unlock()
	m.persist(rec.id)
	return j, nil
}

// Get returns a snapshot of one job.
func (m *Manager) Get(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.jobs[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	return m.snapshotLocked(rec), nil
}

// List returns snapshots of every known job in submission/recovery order.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.snapshotLocked(m.jobs[id]))
	}
	return out
}

// Counts returns the number of jobs per state (all five states are always
// present, so metrics gauges never disappear).
func (m *Manager) Counts() map[State]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	counts := map[State]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
	}
	for _, rec := range m.jobs {
		counts[rec.state]++
	}
	return counts
}

// QueueWait snapshots the submit→start wait-time distribution.
func (m *Manager) QueueWait() stats.LatencySnapshot { return m.queueWait.Snapshot() }

// Cancel requests cancellation. A queued job cancels immediately; a running
// one has its context cancelled and lands in StateCancelled when the worker
// observes it (the returned snapshot may still say running).
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	rec, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Job{}, ErrUnknownJob
	}
	if rec.state.Terminal() {
		j := m.snapshotLocked(rec)
		m.mu.Unlock()
		return j, ErrTerminal
	}
	if rec.state == StateQueued {
		m.applyLocked(rec, EventCancel, nil)
		j := m.snapshotLocked(rec)
		m.mu.Unlock()
		m.persist(id)
		return j, nil
	}
	rec.cancelReq = true
	stop := rec.cancelRun
	j := m.snapshotLocked(rec)
	m.mu.Unlock()
	if stop != nil {
		stop()
	}
	return j, nil
}

// Subscribe registers for progress updates on one job. The returned channel
// receives a snapshot per state/progress change (lossy under backpressure:
// intermediate updates may be dropped, but SSE consumers resynchronize from
// any later one). The cancel function must be called to release it.
func (m *Manager) Subscribe(id string) (<-chan Update, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrUnknownJob
	}
	m.subs++
	token := m.subs
	ch := make(chan Update, 64)
	rec.waiters[token] = ch
	return ch, func() {
		m.mu.Lock()
		delete(rec.waiters, token)
		m.mu.Unlock()
	}, nil
}

// Close drains the orchestrator: every running job is interrupted at its
// current point (the shared context cancels), returned to the queue with
// its checkpoints intact, and persisted, so the next boot's Resume picks it
// up where it left off. ctx bounds the wait for workers to land.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- worker side ----------------------------------------------------------

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case id := <-m.queue:
			m.runJob(id)
		}
	}
}

// runJob drives one attempt of one job: plan, run points (skipping ones
// already checkpointed), merge, publish.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	rec, ok := m.jobs[id]
	if !ok || rec.state != StateQueued {
		// Cancelled (or otherwise resolved) while waiting in the queue.
		m.mu.Unlock()
		return
	}
	if err := m.applyLocked(rec, EventStart, nil); err != nil {
		m.mu.Unlock()
		return
	}
	now := time.Now()
	rec.attempts++
	rec.started = now
	rec.donePoints = 0
	rec.pointNodes = nil
	rec.queueWait = now.Sub(rec.enqueued)
	jctx, stop := context.WithCancel(m.ctx)
	rec.cancelRun = stop
	spec := rec.spec
	wait := rec.queueWait
	m.mu.Unlock()
	defer stop()
	m.queueWait.Observe(wait)
	m.persist(id)

	plan, err := m.cfg.Planner(spec)
	if err == nil {
		m.mu.Lock()
		rec.totalPoints = len(plan.Points)
		rec.resultKey = plan.ResultKey
		m.mu.Unlock()
		if err = m.runPoints(jctx, id, plan); err == nil {
			err = m.mergeAndPublish(jctx, id, plan)
		}
	} else {
		err = fmt.Errorf("planning: %w", err)
	}

	m.mu.Lock()
	rec.cancelRun = nil
	cancelled := rec.cancelReq
	var event Event
	switch {
	case err == nil:
		event = EventComplete
	case cancelled:
		event = EventCancel
	case m.ctx.Err() != nil:
		// Drain interruption: back to the queue, checkpoints intact. The
		// record persists as queued so the next boot's Resume re-enqueues.
		event = EventRetry
		rec.enqueued = time.Now()
	default:
		event = EventFail
	}
	m.applyLocked(rec, event, err)
	m.mu.Unlock()
	m.persist(id)
}

// checkpointKey derives a point's content-addressed blob key. It depends
// only on the plan's result key and the point's stable key, so identical
// specs share checkpoints across jobs and restarts.
func checkpointKey(resultKey, pointKey string) string {
	return "jobpt|" + resultKey + "|" + pointKey
}

// runPoints executes the plan's points, skipping ones whose checkpoints
// already exist, fanning across PointParallelism workers via the experiment
// pool's scheduler (first error cancels the remainder).
func (m *Manager) runPoints(ctx context.Context, id string, plan *Plan) error {
	return experiments.ForEachCtx(ctx, m.cfg.PointParallelism, len(plan.Points),
		func(ctx context.Context, i int) error {
			pt := plan.Points[i]
			ckey := checkpointKey(plan.ResultKey, pt.Key)
			node := "checkpoint" // a skipped point was computed by an earlier attempt
			if _, ok := m.blobs.Get(ckey); !ok {
				b, ranOn, err := m.runPointWithRetry(ctx, plan, pt)
				if err != nil {
					return err
				}
				if err := m.blobs.Put(ckey, b); err != nil {
					return fmt.Errorf("checkpointing %s: %w", pt.Key, err)
				}
				node = ranOn
			}
			m.pointDone(ctx, id, pt.Key, node)
			return nil
		})
}

// runPoint executes one point through the configured runner (local Run when
// no runner is plugged in).
func (m *Manager) runPoint(ctx context.Context, plan *Plan, pt Point) ([]byte, string, error) {
	if m.cfg.Runner != nil {
		return m.cfg.Runner(ctx, plan, pt)
	}
	b, err := pt.Run(ctx)
	return b, "local", err
}

// runPointWithRetry runs one point with the transient-failure retry policy:
// exponential backoff with jitter, never retrying a cancellation.
func (m *Manager) runPointWithRetry(ctx context.Context, plan *Plan, pt Point) ([]byte, string, error) {
	var lastErr error
	for attempt := 0; attempt <= m.cfg.Retries; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, jitteredBackoff(m.cfg.Backoff, m.cfg.MaxBackoff, attempt-1)); err != nil {
				return nil, "", err
			}
		}
		b, node, err := m.runPoint(ctx, plan, pt)
		if err == nil {
			return b, node, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// Cancellation (user or drain), not a transient fault.
			return nil, "", err
		}
	}
	return nil, "", fmt.Errorf("point %s failed after %d attempts: %w", pt.Key, m.cfg.Retries+1, lastErr)
}

// pointDone records one completed (or checkpoint-skipped) point and which
// node computed it.
func (m *Manager) pointDone(ctx context.Context, id, pointKey, node string) {
	m.mu.Lock()
	rec := m.jobs[id]
	rec.donePoints++
	if rec.pointNodes == nil {
		rec.pointNodes = make(map[string]string)
	}
	rec.pointNodes[pointKey] = node
	m.applyLocked(rec, EventProgress, nil)
	j := m.snapshotLocked(rec)
	m.mu.Unlock()
	m.persist(id)
	m.hookMu.Lock()
	hook := m.pointHook
	m.hookMu.Unlock()
	if hook != nil {
		hook(ctx, j)
	}
}

// mergeAndPublish reloads every checkpoint in point order, merges, stores
// the final payload under the result key and hands it to the publisher.
func (m *Manager) mergeAndPublish(ctx context.Context, id string, plan *Plan) error {
	results := make([][]byte, len(plan.Points))
	for i, pt := range plan.Points {
		b, ok := m.blobs.Get(checkpointKey(plan.ResultKey, pt.Key))
		if !ok {
			return fmt.Errorf("checkpoint for point %s disappeared before merge", pt.Key)
		}
		results[i] = b
	}
	payload, err := plan.Merge(ctx, results)
	if err != nil {
		return fmt.Errorf("merging: %w", err)
	}
	if err := m.blobs.Put(plan.ResultKey, payload); err != nil {
		return fmt.Errorf("storing result: %w", err)
	}
	if plan.Publish != nil {
		if err := plan.Publish(payload); err != nil {
			return fmt.Errorf("publishing: %w", err)
		}
	}
	return nil
}

// --- shared internals -----------------------------------------------------

// applyLocked routes a state change through the lifecycle machine, bumps
// the sequence number and notifies subscribers. Caller holds mu.
func (m *Manager) applyLocked(rec *jobRec, e Event, cause error) error {
	next, err := Next(rec.state, e)
	if err != nil {
		return err
	}
	rec.state = next
	switch e {
	case EventFail:
		rec.errMsg = cause.Error()
		rec.finished = time.Now()
	case EventComplete, EventCancel:
		rec.finished = time.Now()
	}
	if next.Terminal() && m.byResult[rec.resultKey] == rec.id {
		delete(m.byResult, rec.resultKey)
	}
	rec.seq++
	j := m.snapshotLocked(rec)
	for _, ch := range rec.waiters {
		select {
		case ch <- Update{Seq: rec.seq, Job: j}:
		default: // lossy by contract; the subscriber resyncs on the next one
		}
	}
	return nil
}

// snapshotLocked builds an API snapshot. Caller holds mu.
func (m *Manager) snapshotLocked(rec *jobRec) Job {
	j := Job{
		ID:          rec.id,
		Spec:        rec.spec,
		State:       rec.state,
		Error:       rec.errMsg,
		Attempts:    rec.attempts,
		TotalPoints: rec.totalPoints,
		DonePoints:  rec.donePoints,
		ETASeconds:  -1,
		ResultKey:   rec.resultKey,
		QueueWaitMS: rec.queueWait.Milliseconds(),
		Created:     rec.created,
		Started:     rec.started,
		Finished:    rec.finished,
	}
	if len(rec.pointNodes) > 0 {
		j.Points = make(map[string]string, len(rec.pointNodes))
		for k, n := range rec.pointNodes {
			j.Points[k] = n
		}
	}
	if rec.totalPoints > 0 {
		j.Progress = float64(rec.donePoints) / float64(rec.totalPoints)
	}
	switch {
	case rec.state.Terminal():
		if rec.state == StateDone {
			j.Progress = 1
		}
		j.ETASeconds = 0
	case rec.state == StateRunning && rec.donePoints > 0 && rec.totalPoints > rec.donePoints:
		perPoint := time.Since(rec.started) / time.Duration(rec.donePoints)
		j.ETASeconds = (perPoint * time.Duration(rec.totalPoints-rec.donePoints)).Seconds()
	}
	return j
}

// newIDLocked mints a collision-checked job id. Caller holds mu.
func (m *Manager) newIDLocked() string {
	for {
		var b [6]byte
		rand.Read(b[:])
		id := "j" + hex.EncodeToString(b[:])
		if _, taken := m.jobs[id]; !taken {
			return id
		}
	}
}

// jitteredBackoff is base*2^attempt capped at max, with up to 50% added
// jitter so synchronized failures do not retry in lockstep.
func jitteredBackoff(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if j, err := rand.Int(rand.Reader, big.NewInt(int64(d)/2+1)); err == nil {
		d += time.Duration(j.Int64())
	}
	return d
}

// sleepCtx sleeps for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
