package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanocache/internal/store"
)

// waitState polls until job id reaches one of the wanted states.
func waitState(t *testing.T, m *Manager, id string, want ...State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		for _, s := range want {
			if j.State == s {
				return j
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %v", id, j.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// countingPlanner builds n-point plans whose point runs are counted, so
// tests can prove checkpoint skipping. The planner is deterministic: the
// same spec always yields the same result key and point keys.
type countingPlanner struct {
	runs    atomic.Int64 // point executions (not checkpoint skips)
	merges  atomic.Int64
	failers sync.Map      // point key → remaining failures (int64)
	block   chan struct{} // non-nil: point runs wait here after counting
}

func (p *countingPlanner) plan(spec Spec) (*Plan, error) {
	if spec.Kind != "test" {
		return nil, fmt.Errorf("unknown kind %q", spec.Kind)
	}
	n := len(spec.Params)
	plan := &Plan{ResultKey: "result|" + spec.Figure}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("p%d", i)
		plan.Points = append(plan.Points, Point{
			Key: key,
			Run: func(ctx context.Context) ([]byte, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				p.runs.Add(1)
				if v, ok := p.failers.Load(key); ok {
					if left := v.(*atomic.Int64); left.Add(-1) >= 0 {
						return nil, fmt.Errorf("transient fault on %s", key)
					}
				}
				if p.block != nil {
					select {
					case <-p.block:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				return []byte(`"` + key + `"`), nil
			},
		})
	}
	plan.Merge = func(_ context.Context, results [][]byte) ([]byte, error) {
		p.merges.Add(1)
		out := []byte("[")
		for i, r := range results {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, r...)
		}
		return append(out, ']'), nil
	}
	return plan, nil
}

// spec builds a test spec with n points.
func testSpec(name string, n int) Spec {
	params := map[string]string{}
	for i := 0; i < n; i++ {
		params[fmt.Sprintf("p%d", i)] = "x"
	}
	return Spec{Kind: "test", Figure: name, Params: params}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

// TestStateMachine table-drives every legal transition and a sample of
// illegal ones through the one choke point.
func TestStateMachine(t *testing.T) {
	legal := []struct {
		from State
		ev   Event
		to   State
	}{
		{StateQueued, EventStart, StateRunning},
		{StateQueued, EventCancel, StateCancelled},
		{StateRunning, EventProgress, StateRunning},
		{StateRunning, EventRetry, StateQueued},
		{StateRunning, EventComplete, StateDone},
		{StateRunning, EventFail, StateFailed},
		{StateRunning, EventCancel, StateCancelled},
	}
	for _, c := range legal {
		got, err := Next(c.from, c.ev)
		if err != nil || got != c.to {
			t.Errorf("Next(%s, %s) = %s, %v; want %s", c.from, c.ev, got, err, c.to)
		}
	}
	illegal := []struct {
		from State
		ev   Event
	}{
		{StateQueued, EventComplete},
		{StateQueued, EventFail},
		{StateQueued, EventProgress},
		{StateQueued, EventRetry},
		{StateDone, EventStart},
		{StateDone, EventCancel},
		{StateFailed, EventRetry},
		{StateCancelled, EventComplete},
		{StateRunning, EventStart},
	}
	for _, c := range illegal {
		got, err := Next(c.from, c.ev)
		if !errors.Is(err, ErrIllegalTransition) {
			t.Errorf("Next(%s, %s) = %s, %v; want ErrIllegalTransition", c.from, c.ev, got, err)
		}
		if got != c.from {
			t.Errorf("illegal transition moved the state: %s + %s -> %s", c.from, c.ev, got)
		}
	}
	for _, s := range States() {
		if !s.Valid() {
			t.Errorf("States() returned invalid state %q", s)
		}
	}
	if State("bogus").Valid() {
		t.Error("bogus state reported valid")
	}
}

// TestHappyPath: submit, run to completion, result blob stored, progress and
// queue-wait populated.
func TestHappyPath(t *testing.T) {
	p := &countingPlanner{}
	m := newTestManager(t, Config{Planner: p.plan})
	j, err := m.Submit(testSpec("happy", 3))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.TotalPoints != 3 {
		t.Fatalf("submitted job %+v, want queued with 3 points", j)
	}
	done := waitState(t, m, j.ID, StateDone)
	if done.Progress != 1 || done.DonePoints != 3 || done.Attempts != 1 {
		t.Errorf("done job %+v, want progress 1, 3 points, 1 attempt", done)
	}
	if got := p.runs.Load(); got != 3 {
		t.Errorf("point runs = %d, want 3", got)
	}
	if b, ok := m.blobs.Get("result|happy"); !ok || string(b) != `["p0","p1","p2"]` {
		t.Errorf("result blob = %q, %t", b, ok)
	}
	if w := m.QueueWait(); w.Count != 1 {
		t.Errorf("queue wait observations = %d, want 1", w.Count)
	}
	counts := m.Counts()
	if counts[StateDone] != 1 || len(counts) != 5 {
		t.Errorf("counts %v, want all five states with done=1", counts)
	}
}

// TestTransientRetry: a point that fails twice under a budget of 2 retries
// still completes, with backoff applied between attempts.
func TestTransientRetry(t *testing.T) {
	p := &countingPlanner{}
	var left atomic.Int64
	left.Store(2)
	p.failers.Store("p0", &left)
	m := newTestManager(t, Config{Planner: p.plan, Retries: 2, Backoff: time.Millisecond})
	j, _ := m.Submit(testSpec("flaky", 1))
	done := waitState(t, m, j.ID, StateDone)
	if done.State != StateDone {
		t.Fatalf("job %+v", done)
	}
	if got := p.runs.Load(); got != 3 {
		t.Errorf("point ran %d times, want 3 (2 failures + 1 success)", got)
	}
}

// TestRetriesExhausted: more faults than budget fails the job with the
// wrapped cause.
func TestRetriesExhausted(t *testing.T) {
	p := &countingPlanner{}
	var left atomic.Int64
	left.Store(100)
	p.failers.Store("p0", &left)
	m := newTestManager(t, Config{Planner: p.plan, Retries: 1, Backoff: time.Millisecond})
	j, _ := m.Submit(testSpec("doomed", 2))
	failed := waitState(t, m, j.ID, StateFailed)
	if failed.Error == "" || failed.State != StateFailed {
		t.Fatalf("job %+v, want failed with error", failed)
	}
	if got := p.runs.Load(); got != 2 {
		t.Errorf("faulty point ran %d times, want 2 (1 + 1 retry)", got)
	}
}

// TestCancelQueued: a job cancelled before any worker picks it up lands in
// cancelled without running a single point.
func TestCancelQueued(t *testing.T) {
	p := &countingPlanner{block: make(chan struct{})}
	m := newTestManager(t, Config{Planner: p.plan, Workers: 1})
	// Occupy the single worker.
	blocker, _ := m.Submit(testSpec("blocker", 1))
	waitState(t, m, blocker.ID, StateRunning)
	victim, _ := m.Submit(testSpec("victim", 2))
	j, err := m.Cancel(victim.ID)
	if err != nil || j.State != StateCancelled {
		t.Fatalf("Cancel queued: %+v, %v", j, err)
	}
	if _, err := m.Cancel(victim.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("double cancel: %v, want ErrTerminal", err)
	}
	close(p.block)
	waitState(t, m, blocker.ID, StateDone)
	if runs := p.runs.Load(); runs != 1 {
		t.Errorf("%d point runs, want only the blocker's", runs)
	}
}

// TestCancelRunning: cancelling a running job cancels its context and the
// job lands in cancelled.
func TestCancelRunning(t *testing.T) {
	p := &countingPlanner{block: make(chan struct{})}
	m := newTestManager(t, Config{Planner: p.plan})
	j, _ := m.Submit(testSpec("longrun", 1))
	waitState(t, m, j.ID, StateRunning)
	// Wait for the point to be genuinely blocked.
	for i := 0; p.runs.Load() == 0; i++ {
		if i > 2000 {
			t.Fatal("point never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateCancelled)
	if got.State != StateCancelled {
		t.Fatalf("job %+v", got)
	}
	if _, err := m.Get("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Get unknown: %v", err)
	}
}

// TestDedupe: two submits that plan to the same result key share one job;
// after it completes, a new submit starts a fresh one.
func TestDedupe(t *testing.T) {
	p := &countingPlanner{block: make(chan struct{})}
	m := newTestManager(t, Config{Planner: p.plan})
	a, _ := m.Submit(testSpec("same", 1))
	b, _ := m.Submit(testSpec("same", 1))
	if a.ID != b.ID {
		t.Fatalf("duplicate submit created a second job: %s vs %s", a.ID, b.ID)
	}
	close(p.block)
	waitState(t, m, a.ID, StateDone)
	c, _ := m.Submit(testSpec("same", 1))
	if c.ID == a.ID {
		t.Error("submit after completion reused the terminal job")
	}
	waitState(t, m, c.ID, StateDone)
	if n := len(m.List()); n != 2 {
		t.Errorf("List has %d jobs, want 2", n)
	}
}

// TestSubscribe: subscribers see a terminal snapshot; unsubscribe releases.
func TestSubscribe(t *testing.T) {
	p := &countingPlanner{}
	m := newTestManager(t, Config{Planner: p.plan})
	j, _ := m.Submit(testSpec("watched", 2))
	ch, unsub, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case u := <-ch:
			if u.Job.State == StateDone {
				if u.Job.Progress != 1 {
					t.Errorf("terminal update progress %v, want 1", u.Job.Progress)
				}
				if _, _, err := m.Subscribe("nope"); !errors.Is(err, ErrUnknownJob) {
					t.Errorf("Subscribe unknown: %v", err)
				}
				return
			}
		case <-deadline:
			t.Fatal("never saw a terminal update")
		}
	}
}

// TestResumeAcrossRestart is the durability centerpiece at the package
// level: run a 3-point job, interrupt it (manager Close) after the first
// point checkpoints, build a new manager over the same record dir and blob
// store, Resume, and demand (a) completion, (b) the already-checkpointed
// point is NOT re-executed, (c) the final blob is identical to an
// uninterrupted run's.
func TestResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	blobs, err := store.Open(store.Config{Dir: dir, Schema: 1})
	if err != nil {
		t.Fatal(err)
	}
	recordDir := dir + "/jobs"

	p1 := &countingPlanner{}
	m1, err := NewManager(Config{Planner: p1.plan, Blobs: blobs, RecordDir: recordDir})
	if err != nil {
		t.Fatal(err)
	}
	interrupted := make(chan struct{})
	var once sync.Once
	m1.SetPointHook(func(ctx context.Context, j Job) {
		once.Do(func() { close(interrupted) })
		// Block until drain cancels the job context: the interruption lands
		// deterministically after the first checkpoint.
		<-ctx.Done()
	})
	j, err := m1.Submit(testSpec("durable", 3))
	if err != nil {
		t.Fatal(err)
	}
	<-interrupted
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := p1.runs.Load(); got < 1 {
		t.Fatalf("no points ran before interrupt")
	}
	firstPhaseRuns := p1.runs.Load()

	// Phase 2: a fresh manager over the same state resumes and finishes.
	p2 := &countingPlanner{}
	m2 := newTestManager(t, Config{Planner: p2.plan, Blobs: blobs, RecordDir: recordDir})
	resumed, err := m2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("Resume requeued %d jobs, want 1", resumed)
	}
	done := waitState(t, m2, j.ID, StateDone)
	if done.Attempts < 2 {
		t.Errorf("resumed job attempts = %d, want >= 2", done.Attempts)
	}
	// The checkpointed first point must not re-execute: phase 2 runs at most
	// the remaining points.
	if got := p2.runs.Load(); got > 2 {
		t.Errorf("phase 2 re-ran %d points, want <= 2 (first was checkpointed; phase 1 ran %d)",
			got, firstPhaseRuns)
	}
	b, ok := blobs.Get("result|durable")
	if !ok || string(b) != `["p0","p1","p2"]` {
		t.Errorf("resumed result = %q, %t; want the uninterrupted merge", b, ok)
	}
	// Terminal record survives another resume for listing, without requeue.
	// The restart follows m2's shutdown: Close waits for its worker, whose
	// terminal record write lands after the in-memory state reads done.
	if err := m2.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m3 := newTestManager(t, Config{Planner: p2.plan, Blobs: blobs, RecordDir: recordDir})
	if n, _ := m3.Resume(); n != 0 {
		t.Errorf("second Resume requeued %d, want 0 (job is terminal)", n)
	}
	list := m3.List()
	if len(list) != 1 || list[0].State != StateDone {
		t.Errorf("resumed listing %v, want the one done job", list)
	}
}

// TestSubmitAfterClose and config validation.
func TestManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Error("nil planner accepted")
	}
	p := &countingPlanner{}
	if _, err := NewManager(Config{Planner: p.plan, Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	m, err := NewManager(Config{Planner: p.plan})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m.Close(ctx)
	if _, err := m.Submit(testSpec("late", 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
	// Planner errors surface at submit time.
	if _, err := NewManager(Config{Planner: p.plan}); err != nil {
		t.Fatal(err)
	}
	m2 := newTestManager(t, Config{Planner: p.plan})
	if _, err := m2.Submit(Spec{Kind: "bogus"}); err == nil {
		t.Error("bogus spec accepted")
	}
}

func TestJitteredBackoff(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	for attempt := 0; attempt < 10; attempt++ {
		for i := 0; i < 20; i++ {
			d := jitteredBackoff(base, max, attempt)
			if d < base || d > max+max/2 {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", attempt, d, base, max+max/2)
			}
		}
	}
}
