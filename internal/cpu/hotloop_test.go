package cpu

import (
	"runtime"
	"testing"

	"nanocache/internal/cacti"
	"nanocache/internal/isa"
	"nanocache/internal/workload"
)

func mustSpec(t testing.TB, name string) workload.Spec {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q not registered", name)
	}
	return spec
}

// TestCycleLoopZeroAlloc pins the tentpole property of the hot-loop overhaul:
// once a machine and its trace are warm, a full Run allocates nothing — no
// per-iteration closures, no scheduler or replay scratch, no MSHR sorting.
// The first run is allowed to grow scratch buffers to their steady-state
// capacity; the measured second run reuses everything through Reset.
func TestCycleLoopZeroAlloc(t *testing.T) {
	const instrs = 30_000
	// A thrashing benchmark exercises the full event set: misses, MSHR
	// saturation, load-hit replays and gated precharge stalls.
	rec := workload.MustRecord(mustSpec(t, "ammp"), 1, instrs+64)
	cfg := DefaultConfig()
	cfg.MaxInstructions = instrs

	cur := rec.Cursor()
	m, err := NewMachine(cfg,
		buildL1(t, cacti.Instruction, pStatic, 0),
		buildL1(t, cacti.Data, pGated, 100),
		cur)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err) // warm-up: grows scratch to steady-state capacity
	}

	// Fresh caches for the measured run (cache accounting is one-shot);
	// everything machine-side is recycled in place.
	l1i := buildL1(t, cacti.Instruction, pStatic, 0)
	l1d := buildL1(t, cacti.Data, pGated, 100)
	cur.Reset()
	if err := m.Reset(cfg, l1i, l1d, cur); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := m.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < instrs {
		t.Fatalf("committed %d, want ≥ %d", res.Committed, instrs)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Fatalf("steady-state Run allocated %d objects over %d loop iterations; want 0 allocs/iteration",
			allocs, m.LoopIters())
	}
}

// TestResetMatchesFreshMachine pins machine reuse: a Reset machine must
// produce bit-identical results to a freshly constructed one — the property
// that makes worker-pool machine recycling invisible to the goldens.
func TestResetMatchesFreshMachine(t *testing.T) {
	const instrs = 10_000
	rec := workload.MustRecord(mustSpec(t, "mcf"), 3, instrs+64)
	cfg := DefaultConfig()
	cfg.MaxInstructions = instrs

	fresh, err := NewMachine(cfg,
		buildL1(t, cacti.Instruction, pStatic, 0),
		buildL1(t, cacti.Data, pGated, 32),
		rec.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantAcc := fresh.Predictor().Accuracy()

	// Dirty a machine with a different config and workload, then Reset it
	// into the reference configuration.
	reused, err := NewMachine(DefaultConfig(),
		buildL1(t, cacti.Instruction, pStatic, 0),
		buildL1(t, cacti.Data, pStatic, 0),
		workload.MustRecord(mustSpec(t, "gcc"), 9, 5_000).Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reused.Run(); err != nil {
		t.Fatal(err)
	}
	if err := reused.Reset(cfg,
		buildL1(t, cacti.Instruction, pStatic, 0),
		buildL1(t, cacti.Data, pGated, 32),
		rec.Cursor()); err != nil {
		t.Fatal(err)
	}
	got, err := reused.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reset machine diverged:\n got %+v\nwant %+v", got, want)
	}
	if acc := reused.Predictor().Accuracy(); acc != wantAcc {
		t.Fatalf("reset predictor accuracy %v, want %v", acc, wantAcc)
	}
}

// TestIdleSkipBoundsIterations pins the idle-path fix: a run dominated by
// long serialized miss gaps must execute a number of loop iterations
// proportional to its events, not its cycles — the loop jumps straight to
// the next event time instead of stepping (and polling) through every idle
// cycle.
func TestIdleSkipBoundsIterations(t *testing.T) {
	// A serial chain of far-apart misses: each link waits out a full memory
	// round trip with nothing else to do.
	const n = 64
	var ops []isa.MicroOp
	prev := isa.Reg(24)
	for i := 0; i < n; i++ {
		op := isa.MicroOp{
			PC: 0x400000 + uint64(i%8)*4, Class: isa.Load,
			Addr: 0x4000_0000 + uint64(i)*8192, Base: prev, Dst: isa.Reg(1 + i%20),
		}
		ops = append(ops, op)
		prev = op.Dst
	}
	l1i := buildL1(t, cacti.Instruction, pStatic, 0)
	l1d := buildL1(t, cacti.Data, pStatic, 0)
	m, err := NewMachine(DefaultConfig(), l1i, l1d, &isa.SliceStream{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != n {
		t.Fatalf("committed %d, want %d", res.Committed, n)
	}
	if res.Cycles < n*30 {
		t.Fatalf("cycles = %d; expected a long serialized chain", res.Cycles)
	}
	// Per committed instruction the pipeline generates a bounded handful of
	// events (dispatch, issue, replay detection, squash reissue, commit,
	// line fills); 32 per op plus slack is generous. Without idle skipping
	// iterations track cycles (here ≥ 30 per op) and keep growing with the
	// miss distance.
	maxIters := uint64(n*32 + 64)
	if iters := m.LoopIters(); iters > maxIters {
		t.Fatalf("long-idle run took %d loop iterations over %d cycles; want ≤ %d (events+slack)",
			iters, res.Cycles, maxIters)
	}
}
