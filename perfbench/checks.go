package main

import (
	"bytes"
	"fmt"

	"nanocache/internal/experiments"
	"nanocache/internal/server"
)

// checkFig8 checks one fig8-default round: the subarray-cycle ledger of
// every sweep point and baseline, every benchmark's chosen threshold, and
// the Figure 8 averages against the paper. Every figure, baseline and sweep
// outcome is folded into the digest.
func checkFig8(rep *report, lab *experiments.Lab, opts experiments.Options, figs [2]experiments.Fig8Result, d *digester) error {
	benches := opts.BenchmarkList()
	for s, side := range sides {
		f := figs[s]
		if err := d.add("fig8_"+side.String(), f); err != nil {
			return err
		}
		if len(f.Bench) != len(benches) {
			rep.failf("fig8 %s has %d benchmarks, want %d", side, len(f.Bench), len(benches))
			continue
		}
		for _, b := range f.Bench {
			base, err := lab.Baseline(b.Benchmark)
			if err != nil {
				return err
			}
			pts, err := lab.GatedSweep(b.Benchmark, side, 0)
			if err != nil {
				return err
			}
			label := fmt.Sprintf("%s %s", b.Benchmark, side)
			if err := d.add("baseline "+label, base); err != nil {
				return err
			}
			if err := d.add("sweep "+label, pts); err != nil {
				return err
			}
			checkLedger(rep, "baseline "+b.Benchmark, base)
			for _, p := range pts {
				checkLedger(rep, fmt.Sprintf("%s thr=%d", label, p.Threshold), p.Outcome)
			}
			checkChoice(rep, label, pts, b.Threshold, opts.PerfBudget)
		}
	}
	for _, c := range defaultFig8Values {
		checkBand(rep, c.paperValue, c.measure(figs))
	}
	return nil
}

// checkLedger checks the precharge ledger's conservation law on both caches
// of one run: pulled-up plus isolated subarray-cycles equal the subarray
// count times the cpu's cycle count.
func checkLedger(rep *report, label string, o experiments.Outcome) {
	for _, c := range []struct {
		name string
		co   experiments.CacheOutcome
	}{{"d-cache", o.D}, {"i-cache", o.I}} {
		want := uint64(c.co.Subarrays) * o.CPU.Cycles
		if got := c.co.PulledCycles + c.co.IdleCycles; got != want || c.co.Subarrays == 0 {
			rep.failf("%s %s: pulled %d + isolated %d = %d subarray-cycles, want %d subarrays × %d cycles = %d",
				label, c.name, c.co.PulledCycles, c.co.IdleCycles, got, c.co.Subarrays, o.CPU.Cycles, want)
		}
	}
}

// checkChoice checks a benchmark's chosen threshold: its point must be
// within the performance budget, or, when no point of the sweep is, it must
// be the gentlest (largest) threshold.
func checkChoice(rep *report, label string, pts []experiments.SweepPoint, chosen uint64, budget float64) {
	var found *experiments.SweepPoint
	feasible := false
	gentlest := uint64(0)
	for i := range pts {
		if pts[i].Threshold == chosen {
			found = &pts[i]
		}
		if pts[i].Slowdown <= budget {
			feasible = true
		}
		gentlest = max(gentlest, pts[i].Threshold)
	}
	switch {
	case found == nil:
		rep.failf("%s: chosen threshold %d is not a sweep point", label, chosen)
	case found.Slowdown <= budget:
	case feasible:
		rep.failf("%s: chosen threshold %d slows by %.4f > budget %.4f while a feasible point exists",
			label, chosen, found.Slowdown, budget)
	case chosen != gentlest:
		rep.failf("%s: no point is within the budget, but the choice %d is not the gentlest threshold %d",
			label, chosen, gentlest)
	}
}

// checkMembersComputed records a failure for every fleet member that
// computed no point of the round's jobs.
func checkMembersComputed(rep *report, run string, before, after [2]server.MetricsSnapshot) {
	for i := range before {
		if after[i].DistPointsCompleted == before[i].DistPointsCompleted {
			rep.failf("%s: member %d computed no points", run, i+1)
		}
	}
}

// dispositionOK reports whether a response's X-Nanocache disposition is
// the one its request class implies.
func dispositionOK(class, disposition string) bool {
	switch class {
	case classHit, classJobResult:
		return disposition == "hit"
	case classPromote:
		return disposition == "store" || disposition == "hit"
	case classCold:
		return disposition == "miss"
	case classJobSubmit:
		return disposition == "live"
	}
	return false
}

// checkBytes records a failure when got differs from want.
func checkBytes(rep *report, label string, got, want []byte) {
	if !bytes.Equal(got, want) {
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		rep.failf("%s: %d result bytes differ from the %d expected, first at offset %d", label, len(got), len(want), at)
	}
}
