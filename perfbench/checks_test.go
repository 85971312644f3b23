package main

import (
	"math/rand"
	"strings"
	"testing"

	"nanocache/internal/experiments"
	"nanocache/internal/server"
	"nanocache/internal/verify"
)

// tinyRun is a real architectural run small enough for a unit test.
func tinyRun(t *testing.T, d experiments.PolicySpec) experiments.Outcome {
	t.Helper()
	o, err := experiments.Run(experiments.RunConfig{
		Benchmark: "gcc", Seed: 3, Instructions: 2000, SubarrayBytes: 1024,
		DPolicy: d, IPolicy: experiments.Static(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestLedgerCheckFailsOffByOneCycle(t *testing.T) {
	o := tinyRun(t, experiments.GatedPolicy(32, true))
	rep := newReport()
	checkLedger(rep, "tiny", o)
	if len(rep.problems) != 0 {
		t.Fatalf("unperturbed run fails the ledger check: %v", rep.problems)
	}
	for _, perturb := range []func(*experiments.Outcome){
		func(o *experiments.Outcome) { o.D.PulledCycles++ },
		func(o *experiments.Outcome) { o.I.IdleCycles-- },
		func(o *experiments.Outcome) { o.CPU.Cycles++ },
	} {
		bad := o
		perturb(&bad)
		rep := newReport()
		checkLedger(rep, "tiny", bad)
		if len(rep.problems) == 0 {
			t.Error("a ledger off by one cycle passes the check")
		}
	}
}

func TestChoiceCheck(t *testing.T) {
	pts := []experiments.SweepPoint{
		{Threshold: 8, Slowdown: 0.03},
		{Threshold: 32, Slowdown: 0.008},
		{Threshold: 100, Slowdown: 0.002},
	}
	for _, c := range []struct {
		name   string
		pts    []experiments.SweepPoint
		chosen uint64
		ok     bool
	}{
		{"feasible choice", pts, 32, true},
		{"over budget while a feasible point exists", pts, 8, false},
		{"not a sweep point", pts, 64, false},
		{"none feasible, gentlest", []experiments.SweepPoint{{Threshold: 8, Slowdown: 0.05}, {Threshold: 100, Slowdown: 0.02}}, 100, true},
		{"none feasible, not the gentlest", []experiments.SweepPoint{{Threshold: 8, Slowdown: 0.05}, {Threshold: 100, Slowdown: 0.02}}, 8, false},
	} {
		rep := newReport()
		checkChoice(rep, c.name, c.pts, c.chosen, 0.01)
		if got := len(rep.problems) == 0; got != c.ok {
			t.Errorf("%s: check passed=%v, want %v (%v)", c.name, got, c.ok, rep.problems)
		}
	}
}

func TestBandsFailOutside(t *testing.T) {
	var all []paperValue
	for _, c := range quickValues {
		all = append(all, c.paperValue)
	}
	for _, c := range defaultFig8Values {
		all = append(all, c.paperValue)
	}
	for _, p := range all {
		if p.lo > p.hi {
			t.Errorf("%s: empty band [%g, %g]", p.name, p.lo, p.hi)
		}
		rep := newReport()
		checkBand(rep, p, (p.lo+p.hi)/2)
		if len(rep.problems) != 0 {
			t.Errorf("%s: the band's midpoint fails", p.name)
		}
		for _, v := range []float64{p.hi + 1e-3 + 1e-3*abs(p.hi), p.lo - 1e-3 - 1e-3*abs(p.lo)} {
			rep := newReport()
			checkBand(rep, p, v)
			if len(rep.problems) == 0 {
				t.Errorf("%s: %g outside [%g, %g] passes", p.name, v, p.lo, p.hi)
			}
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFig8AveragesOutsideBandsFail(t *testing.T) {
	good := [2]experiments.Fig8Result{
		{AvgRelDischarge: 0.2, AvgSlowdown: 0.008, AvgSavings: 0.4, AvgPulled: 0.15},
		{AvgRelDischarge: 0.07, AvgSlowdown: 0.005, AvgSavings: 0.4},
	}
	rep := newReport()
	for _, c := range defaultFig8Values {
		checkBand(rep, c.paperValue, c.measure(good))
	}
	if len(rep.problems) != 0 {
		t.Fatalf("in-band averages fail: %v", rep.problems)
	}
	bad := good
	bad[0].AvgSlowdown = 0.02 // twice the paper's 1% budget
	rep = newReport()
	for _, c := range defaultFig8Values {
		checkBand(rep, c.paperValue, c.measure(bad))
	}
	if len(rep.problems) != 1 || !strings.Contains(rep.problems[0], "D slowdown") {
		t.Fatalf("a D slowdown outside its band gives %v", rep.problems)
	}
}

func TestFlippedResultByteFails(t *testing.T) {
	o := tinyRun(t, experiments.Static())
	want, err := verify.MarshalGolden(o)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	checkBytes(rep, "run", append([]byte(nil), want...), want)
	if len(rep.problems) != 0 {
		t.Fatalf("identical bytes fail: %v", rep.problems)
	}
	for _, at := range []int{0, len(want) / 2, len(want) - 1} {
		got := append([]byte(nil), want...)
		got[at] ^= 1
		rep := newReport()
		checkBytes(rep, "run", got, want)
		if len(rep.problems) == 0 {
			t.Errorf("byte %d flipped passes", at)
		}
	}
	rep = newReport()
	checkBytes(rep, "run", want[:len(want)-1], want)
	if len(rep.problems) == 0 {
		t.Error("a truncated result passes")
	}
}

func TestWrongDispositionFails(t *testing.T) {
	ok := map[string][]string{
		classHit:       {"hit"},
		classPromote:   {"store", "hit"},
		classCold:      {"miss"},
		classJobSubmit: {"live"},
		classJobResult: {"hit"},
	}
	all := []string{"hit", "store", "miss", "peer", "live", "shed", "static", ""}
	for class, good := range ok {
		for _, d := range all {
			want := false
			for _, g := range good {
				want = want || g == d
			}
			if got := dispositionOK(class, d); got != want {
				t.Errorf("class %s disposition %q: ok=%v, want %v", class, d, got, want)
			}
		}
	}
	r := &serveRun{rep: newReport()}
	r.checkResponse(classHit, "GET", response{status: 200, disposition: "store"}, 200, nil)
	r.checkResponse(classCold, "POST", response{status: 200, disposition: "hit"}, 200, nil)
	r.checkResponse(classPromote, "POST", response{status: 504, disposition: "store"}, 200, nil)
	if len(r.rep.problems) != 3 {
		t.Errorf("3 wrong responses give %d failures: %v", len(r.rep.problems), r.rep.problems)
	}
}

func TestIdleMemberFails(t *testing.T) {
	before := [2]server.MetricsSnapshot{{DistPointsCompleted: 10}, {DistPointsCompleted: 4}}
	after := before
	after[0].DistPointsCompleted, after[1].DistPointsCompleted = 30, 9
	rep := newReport()
	checkMembersComputed(rep, "round", before, after)
	if len(rep.problems) != 0 {
		t.Fatalf("both members computed, yet %v", rep.problems)
	}
	after[1].DistPointsCompleted = 4
	checkMembersComputed(rep, "round", before, after)
	if len(rep.problems) != 1 || !strings.Contains(rep.problems[0], "member 2") {
		t.Fatalf("an idle member 2 gives %v", rep.problems)
	}
}

func TestSizeListsDistinct(t *testing.T) {
	lists := sizeLists([]int{4096, 2048, 1024, 512, 256, 128, 64}, rand.New(rand.NewSource(1)))
	if len(lists) != 7*6*5*4 {
		t.Fatalf("%d size lists, want %d", len(lists), 7*6*5*4)
	}
	seen := map[string]bool{}
	for _, l := range lists {
		if seen[l] {
			t.Fatalf("size list %s repeats", l)
		}
		seen[l] = true
	}
	again := sizeLists([]int{4096, 2048, 1024, 512, 256, 128, 64}, rand.New(rand.NewSource(1)))
	for i := range lists {
		if lists[i] != again[i] {
			t.Fatal("size lists are not a function of the seed")
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median %g, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median %g, want 2.5", m)
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if q := quantile(hundred, 0.99); q != 99 {
		t.Errorf("p99 of 1..100 is %g, want 99", q)
	}
}

// TestServeEndToEnd boots a small daemon, runs a few scripted rounds and
// checks every response, the cold-run sample and every job against
// recomputation.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon and simulates")
	}
	opts := experiments.QuickOptions()
	opts.Seed = 5
	opts.Benchmarks = []string{"gcc"}
	opts.Instructions = 5_000
	cfg := serveConfig{
		opts:                opts,
		hitSet:              []figureReq{{"fig2", nil}, {"overhead", nil}, {"fig8", map[string]string{"side": "d"}}},
		jobSizes:            []int{4096, 1024, 256, 64},
		promoteInstructions: 2_000,
		coldInstructions:    3_000,
		hits:                40, promotes: 4, colds: 2,
		fixedRounds: 4,
	}
	e := &env{seed: 5, seconds: 1, scratch: t.TempDir()}
	rep := newReport()
	r, err := bootServe(e, cfg, rep, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.stop()
	if _, err := r.loop(); err != nil {
		t.Fatal(err)
	}
	if err := r.verifyOutputs(); err != nil {
		t.Fatal(err)
	}
	if len(rep.problems) != 0 || rep.failed != 0 {
		t.Fatalf("%d failed operations, problems %v", rep.failed, rep.problems)
	}
	if want := cfg.fixedRounds * (cfg.hits + cfg.promotes + cfg.colds + 1); rep.attempted != want {
		t.Errorf("attempted %d operations, want %d", rep.attempted, want)
	}
	if ms := r.classLatencies(); ms <= 0 {
		t.Errorf("job median %g ms", ms)
	}
	for _, class := range []string{classHit, classPromote, classCold, "job"} {
		if len(r.lat[class]) == 0 {
			t.Errorf("no %s latencies recorded", class)
		}
	}
}
