package experiments

// Tests for the lab's run memo: a figure that needs only runs earlier
// figures already made simulates nothing, and figures computed concurrently
// on one lab read the shared memoized outcomes safely.

import (
	"reflect"
	"sync"
	"testing"
)

// memoOptions is a small lab: two benchmarks (so SMT has a pair and
// Predecode's subset is the whole list) at a short run length.
func memoOptions() Options {
	opts := QuickOptions()
	opts.Instructions = 8_000
	opts.Benchmarks = []string{"art", "gcc"}
	return opts
}

// TestRunMemoSharesFigureRuns counts simulations: each figure under test
// reads only runs the figures before it already made (baseline, oracle,
// on-demand, the sweeps and their constant-threshold point, the resizable
// ladder, predecode's hint-free sweep), so its RunsExecuted delta is zero.
func TestRunMemoSharesFigureRuns(t *testing.T) {
	fig3 := func(l *Lab) error { _, err := l.Figure3(); return err }
	onDemand := func(l *Lab) error { _, err := l.OnDemand(); return err }
	fig8D := func(l *Lab) error { _, err := l.Figure8(DataCache); return err }
	fig8I := func(l *Lab) error { _, err := l.Figure8(InstructionCache); return err }
	fig9 := func(l *Lab) error { _, err := l.Figure9(); return err }
	predecode := func(l *Lab) error { _, err := l.Predecode(); return err }
	cases := []struct {
		name   string
		before []func(*Lab) error
		figure func(*Lab) error
	}{
		{"summary", []func(*Lab) error{fig3, onDemand, fig8D, fig8I, fig9, predecode},
			func(l *Lab) error { _, err := l.Summary(); return err }},
		{"projection", []func(*Lab) error{fig3, fig8D},
			func(l *Lab) error { _, err := l.Projection(); return err }},
		{"sensitivity at the lab seed", []func(*Lab) error{fig3, onDemand, fig8D},
			func(l *Lab) error { _, err := l.Sensitivity([]int64{l.opts.Seed}); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lab, err := NewLab(memoOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range c.before {
				if err := f(lab); err != nil {
					t.Fatal(err)
				}
			}
			before := RunsExecuted()
			if err := c.figure(lab); err != nil {
				t.Fatal(err)
			}
			if d := RunsExecuted() - before; d != 0 {
				t.Errorf("%s simulated %d runs the lab already had, want 0", c.name, d)
			}
		})
	}
}

// memoFigures are five figures whose runs overlap: Summary reruns most of
// the evaluation, and the others share its baselines, sweep points and
// oracle runs.
type memoFigures struct {
	Summary SummaryResult
	Ext     ExtensionsResult
	SMT     SMTResult
	Proj    ProjectionResult
	Seeds   SensitivityResult
}

func (f *memoFigures) calls(l *Lab) []func() error {
	seeds := []int64{l.opts.Seed, l.opts.Seed + 1}
	return []func() error{
		func() (err error) { f.Summary, err = l.Summary(); return },
		func() (err error) { f.Ext, err = l.Extensions(); return },
		func() (err error) { f.SMT, err = l.SMT(); return },
		func() (err error) { f.Proj, err = l.Projection(); return },
		func() (err error) { f.Seeds, err = l.Sensitivity(seeds); return },
	}
}

// TestConcurrentFiguresMatchSerial computes the five figures concurrently
// on one fresh lab, so several goroutines read (and race to compute) the
// same memoized outcomes, and deep-equals each against a serial lab. CI
// runs it under -race -count=10.
func TestConcurrentFiguresMatchSerial(t *testing.T) {
	opts := memoOptions()
	opts.Parallelism = 1
	serial, err := NewLab(opts)
	if err != nil {
		t.Fatal(err)
	}
	var want memoFigures
	for _, call := range want.calls(serial) {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}

	opts.Parallelism = 4
	lab, err := NewLab(opts)
	if err != nil {
		t.Fatal(err)
	}
	var got memoFigures
	calls := got.calls(lab)
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	for i, call := range calls {
		wg.Add(1)
		go func(i int, call func() error) {
			defer wg.Done()
			errs[i] = call()
		}(i, call)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("figure %d: %v", i, err)
		}
	}
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("%s: concurrent result differs from serial", wv.Type().Field(i).Name)
		}
	}
}
