package experiments

// Tests for the parallel experiment engine: the worker pool's first-error
// cancellation, the single-flight memoization, and — the core guarantee —
// that a lab at Parallelism=8 produces byte-identical figures to a lab at
// Parallelism=1 (deterministic merge, never completion order).

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// labFigures bundles the full figure set of one lab so the serial and
// parallel engines can be compared wholesale.
type labFigures struct {
	Fig3       Fig3Result
	OnDemand   OnDemandResult
	LocD, LocI LocalityResult
	Fig8D      Fig8Result
	Fig8I      Fig8Result
	Fig9       Fig9Result
	Fig10      Fig10Result
	SweepD     []SweepPoint
	Pre        PredecodeResult
	Seeds      SensitivityResult
	Machine    MachineSensitivityResult
	Proc       ProcessorResult
	Alpha      AlphaResult
	Ext        ExtensionsResult
	Proj       ProjectionResult
	SMT        SMTResult
	Summary    SummaryResult
}

// collectFigures regenerates the QuickOptions figure set on a reduced
// benchmark subset at the given pool width, also recording every progress
// line (the line multiset doubles as a proof that single-flight runs each
// memoized configuration exactly once, serial or parallel).
func collectFigures(t *testing.T, parallelism int) (labFigures, []string) {
	t.Helper()
	opts := QuickOptions()
	opts.Instructions = 25_000
	opts.Benchmarks = []string{"art", "gcc", "health"}
	opts.Parallelism = parallelism
	lab, err := NewLab(opts)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	lab.SetProgress(func(s string) { lines = append(lines, s) })

	var f labFigures
	step := func(name string, fn func() error) {
		t.Helper()
		if err := fn(); err != nil {
			t.Fatalf("%s (parallelism %d): %v", name, parallelism, err)
		}
	}
	step("figure3", func() (err error) { f.Fig3, err = lab.Figure3(); return })
	step("ondemand", func() (err error) { f.OnDemand, err = lab.OnDemand(); return })
	step("locality-d", func() (err error) { f.LocD, err = lab.Locality(DataCache); return })
	step("locality-i", func() (err error) { f.LocI, err = lab.Locality(InstructionCache); return })
	step("figure8-d", func() (err error) { f.Fig8D, err = lab.Figure8(DataCache); return })
	step("figure8-i", func() (err error) { f.Fig8I, err = lab.Figure8(InstructionCache); return })
	step("figure9", func() (err error) { f.Fig9, err = lab.Figure9(); return })
	step("figure10", func() (err error) { f.Fig10, err = lab.Figure10([]int{1024, 256}); return })
	step("sweep-d", func() (err error) { f.SweepD, err = lab.GatedSweep("gcc", DataCache, 0); return })
	step("predecode", func() (err error) { f.Pre, err = lab.Predecode(); return })
	step("sensitivity", func() (err error) { f.Seeds, err = lab.Sensitivity([]int64{1, 2}); return })
	step("machine", func() (err error) { f.Machine, err = lab.MachineSensitivity(); return })
	step("processor", func() (err error) { f.Proc, err = lab.Processor(); return })
	step("alpha", func() (err error) { f.Alpha, err = lab.Alpha21164(); return })
	step("extensions", func() (err error) { f.Ext, err = lab.Extensions(); return })
	step("projection", func() (err error) { f.Proj, err = lab.Projection(); return })
	step("smt", func() (err error) { f.SMT, err = lab.SMT(); return })
	step("summary", func() (err error) { f.Summary, err = lab.Summary(); return })
	return f, lines
}

// TestParallelLabMatchesSerial proves the parallel engine is an exact
// drop-in: every figure struct at Parallelism=8 deep-equals its
// Parallelism=1 counterpart, and both engines execute the same multiset of
// runs (sorted progress lines match).
func TestParallelLabMatchesSerial(t *testing.T) {
	serial, serialLines := collectFigures(t, 1)
	parallel, parallelLines := collectFigures(t, 8)

	sv := reflect.ValueOf(serial)
	pv := reflect.ValueOf(parallel)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if !reflect.DeepEqual(sv.Field(i).Interface(), pv.Field(i).Interface()) {
			t.Errorf("%s: parallel result differs from serial", name)
		}
	}

	// Same work, merely reordered: sorting the progress lines must yield
	// identical logs (single-flight never duplicates a memoized run, and
	// the pool never drops one).
	sort.Strings(serialLines)
	sort.Strings(parallelLines)
	if !reflect.DeepEqual(serialLines, parallelLines) {
		t.Errorf("progress multisets differ: serial %d lines, parallel %d lines",
			len(serialLines), len(parallelLines))
	}
}

// TestForEachCancelsPromptly asserts the pool's first-error behaviour: once
// a job fails, no queued job starts (at most the already-running workers
// finish), and the reported error is the lowest-index failure rather than
// whichever goroutine lost the race.
func TestForEachCancelsPromptly(t *testing.T) {
	boom := errors.New("boom")
	const workers, jobs = 4, 100
	var mu sync.Mutex
	started := 0
	err := forEachCtx(context.Background(), workers, jobs, func(ctx context.Context, i int) error {
		mu.Lock()
		started++
		mu.Unlock()
		if i == 0 {
			return boom
		}
		// Every other job parks until cancellation, so any job beyond the
		// initial worker set can only start if cancellation failed to stop
		// the queue.
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the lowest-index error %v", err, boom)
	}
	if started > workers {
		t.Errorf("%d jobs started, want <= %d: pool kept scheduling after the first error", started, workers)
	}
}

// TestForEachSerialStopsAtError checks the inline (workers<=1) path stops at
// the first failure too.
func TestForEachSerialStopsAtError(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	err := forEachCtx(context.Background(), 1, 10, func(context.Context, int) error {
		ran++
		if ran == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 3 {
		t.Fatalf("ran %d jobs with err %v, want 3 jobs and boom", ran, err)
	}
}

// TestLabErrorPropagatesParallel runs a figure over a benchmark list with a
// poisoned entry and asserts the failure surfaces through the pool. An
// unknown benchmark is rejected up front by Options.Validate, so the lab is
// built with a valid list and poisoned afterwards to exercise the run-time
// error path through the workers.
func TestLabErrorPropagatesParallel(t *testing.T) {
	opts := QuickOptions()
	opts.Instructions = 5_000
	opts.Benchmarks = []string{"nonesuch"}
	if _, err := NewLab(opts); err == nil || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("NewLab with unknown benchmark: err = %v, want validation failure", err)
	}
	opts.Benchmarks = []string{"gcc"}
	opts.Parallelism = 8
	lab, err := NewLab(opts)
	if err != nil {
		t.Fatal(err)
	}
	lab.opts.Benchmarks = []string{"gcc", "nonesuch"}
	if _, err := lab.Figure3(); err == nil || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("Figure3 err = %v, want unknown-benchmark failure", err)
	}
	// The poisoned key must not stay memoized: a corrected lab request for
	// the good benchmark still works.
	if _, err := lab.Baseline("gcc"); err != nil {
		t.Fatalf("Baseline after failure: %v", err)
	}
}

// TestSingleFlightDeduplicates hammers one memoized key from many
// goroutines and counts the actual computations via the progress stream.
func TestSingleFlightDeduplicates(t *testing.T) {
	opts := QuickOptions()
	opts.Instructions = 5_000
	opts.Benchmarks = []string{"gcc"}
	opts.Parallelism = 8
	lab, err := NewLab(opts)
	if err != nil {
		t.Fatal(err)
	}
	computed := 0
	lab.SetProgress(func(s string) {
		if strings.HasPrefix(s, "baseline") {
			computed++
		}
	})
	var wg sync.WaitGroup
	outs := make([]Outcome, 8)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, err := lab.Baseline("gcc")
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = o
		}(i)
	}
	wg.Wait()
	if computed != 1 {
		t.Errorf("baseline computed %d times under 8 concurrent requesters, want 1 (single-flight)", computed)
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].CPU != outs[0].CPU {
			t.Fatalf("requester %d saw a different outcome", i)
		}
	}
}

// TestRunAllMatchesRun checks the exported fan-out helper returns outcomes
// in input order, identical to serial Run calls.
func TestRunAllMatchesRun(t *testing.T) {
	cfgs := []RunConfig{
		{Benchmark: "gcc", Seed: 1, Instructions: 5_000, DPolicy: Static(), IPolicy: Static()},
		{Benchmark: "gcc", Seed: 1, Instructions: 5_000, DPolicy: GatedPolicy(32, true), IPolicy: Static()},
		{Benchmark: "art", Seed: 1, Instructions: 5_000, DPolicy: OnDemandPolicy(), IPolicy: Static()},
	}
	outs, err := RunAll(context.Background(), 8, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(cfgs) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i].CPU != want.CPU || outs[i].D.Misses != want.D.Misses {
			t.Errorf("outcome %d differs from serial Run", i)
		}
	}
}

// TestRunAllError checks error propagation and pre-cancelled contexts.
func TestRunAllError(t *testing.T) {
	cfgs := []RunConfig{
		{Benchmark: "gcc", Seed: 1, Instructions: 5_000},
		{Benchmark: "nonesuch", Seed: 1, Instructions: 5_000},
	}
	if _, err := RunAll(context.Background(), 4, cfgs); err == nil ||
		!strings.Contains(err.Error(), "nonesuch") {
		t.Errorf("RunAll err = %v, want unknown-benchmark failure", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunAll(ctx, 4, cfgs[:1]); !errors.Is(err, context.Canceled) {
		t.Errorf("RunAll on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestNegativeParallelismRejected pins the Options validation.
func TestNegativeParallelismRejected(t *testing.T) {
	o := DefaultOptions()
	o.Parallelism = -1
	if err := o.Validate(); err == nil {
		t.Error("negative parallelism must be rejected")
	}
	if _, err := NewLab(o); err == nil {
		t.Error("NewLab must reject negative parallelism")
	}
}
