package main

import (
	"fmt"
	"os"

	"nanocache/internal/experiments"
	"nanocache/internal/tech"
)

// paperValue is one number the paper publishes (DESIGN.md §3,
// EXPERIMENTS.md), with the band this benchmark accepts for the
// reproduction's measurement of it. The bands are the benchmark's own, set
// so that they hold across workload seeds; they are not read from
// Lab.Summary, so a change that moved both the summary's bands and the
// results could not pass unnoticed.
type paperValue struct {
	name   string
	paper  float64
	lo, hi float64
}

// within reports whether v is in the band (bounds inclusive).
func (p paperValue) within(v float64) bool { return v >= p.lo && v <= p.hi }

// quickValues are checked on every figures-quick round (QuickOptions, all
// sixteen benchmarks).
var quickValues = []struct {
	paperValue
	measure func(ev *evaluation) float64
}{
	{paperValue{"Fig2 180nm isolation peak (x static)", 1.95, 1.85, 2.05},
		func(ev *evaluation) float64 { return ev.f2.PeakPower[tech.N180] }},
	{paperValue{"Fig2 70nm isolation peak (x static)", 1.0, 1.0, 1.02},
		func(ev *evaluation) float64 { return ev.f2.PeakPower[tech.N70] }},
	{paperValue{"Fig2 180nm settling time (ns)", 500, 450, 1200},
		func(ev *evaluation) float64 { return ev.f2.SettleNS[tech.N180] }},
	{paperValue{"Table3 rows where on-demand precharging hides", 0, 0, 0},
		func(ev *evaluation) float64 {
			n := 0.0
			for _, row := range ev.t3.Rows {
				if row.OnDemandViable {
					n++
				}
			}
			return n
		}},
	{paperValue{"Fig3 oracle D discharge reduction", 0.89, 0.82, 0.96},
		func(ev *evaluation) float64 { return 1 - ev.f3.DAvg }},
	{paperValue{"Fig3 oracle I discharge reduction", 0.90, 0.84, 0.97},
		func(ev *evaluation) float64 { return 1 - ev.f3.IAvg }},
	{paperValue{"Fig3 D saving share of cache energy", 0.46, 0.36, 0.56},
		func(ev *evaluation) float64 { return ev.f3.DEnergyShare }},
	{paperValue{"Fig3 I saving share of cache energy", 0.41, 0.31, 0.53},
		func(ev *evaluation) float64 { return ev.f3.IEnergyShare }},
	{paperValue{"Sec5 on-demand D slowdown", 0.09, 0.02, 0.12},
		func(ev *evaluation) float64 { return ev.od.DAvg }},
	{paperValue{"Sec5 on-demand I slowdown", 0.07, 0.02, 0.12},
		func(ev *evaluation) float64 { return ev.od.IAvg }},
	{paperValue{"Fig6 D hot subarrays at the 100-cycle threshold", 0.22, 0.12, 0.34},
		func(ev *evaluation) float64 { return ev.locD.AvgHotFraction()[2] }},
	{paperValue{"Fig8 gated D discharge reduction", 0.83, 0.68, 0.92},
		func(ev *evaluation) float64 { return 1 - ev.f8d.AvgRelDischarge }},
	{paperValue{"Fig8 gated I discharge reduction", 0.87, 0.82, 0.97},
		func(ev *evaluation) float64 { return 1 - ev.f8i.AvgRelDischarge }},
	{paperValue{"Fig8 gated D slowdown", 0.01, -0.005, 0.012},
		func(ev *evaluation) float64 { return ev.f8d.AvgSlowdown }},
	{paperValue{"Fig8 gated D overall energy saving", 0.42, 0.30, 0.52},
		func(ev *evaluation) float64 { return ev.f8d.AvgSavings }},
	{paperValue{"Fig8 gated I overall energy saving", 0.36, 0.28, 0.50},
		func(ev *evaluation) float64 { return ev.f8i.AvgSavings }},
	{paperValue{"Fig9 gated beats resizable at 70nm (D margin)", 0.3, 0.1, 0.6},
		func(ev *evaluation) float64 {
			return ev.f9.Resizable[experiments.DataCache][tech.N70] - ev.f9.Gated[experiments.DataCache][tech.N70]
		}},
	{paperValue{"Fig9 resizable flat across nodes (D spread)", 0, -0.05, 0.05},
		func(ev *evaluation) float64 {
			return ev.f9.Resizable[experiments.DataCache][tech.N180] - ev.f9.Resizable[experiments.DataCache][tech.N70]
		}},
	{paperValue{"Fig10 D precharged fraction at 4KB subarrays", 0.28, 0.15, 0.35},
		func(ev *evaluation) float64 { return ev.f10.Pulled[experiments.DataCache][4096] }},
	{paperValue{"Sec6.3 predecode accuracy at 1KB", 0.80, 0.74, 0.88},
		func(ev *evaluation) float64 { return ev.pre.Avg1KB }},
	{paperValue{"Sec6.3 predecode accuracy at line size", 0.61, 0.53, 0.68},
		func(ev *evaluation) float64 { return ev.pre.AvgLine }},
	{paperValue{"Sec6.2 counter overhead (fraction of access energy)", 0.0002, 0, 0.0002},
		func(ev *evaluation) float64 { return ev.ov.PerNode[tech.N70] }},
}

// defaultFig8Values are checked on every fig8-default round (DefaultOptions).
var defaultFig8Values = []struct {
	paperValue
	measure func(f [2]experiments.Fig8Result) float64
}{
	{paperValue{"Fig8 gated D discharge reduction", 0.83, 0.68, 0.92},
		func(f [2]experiments.Fig8Result) float64 { return 1 - f[0].AvgRelDischarge }},
	{paperValue{"Fig8 gated I discharge reduction", 0.87, 0.82, 0.97},
		func(f [2]experiments.Fig8Result) float64 { return 1 - f[1].AvgRelDischarge }},
	{paperValue{"Fig8 gated D slowdown", 0.01, -0.005, 0.012},
		func(f [2]experiments.Fig8Result) float64 { return f[0].AvgSlowdown }},
	{paperValue{"Fig8 gated I slowdown", 0.01, -0.005, 0.012},
		func(f [2]experiments.Fig8Result) float64 { return f[1].AvgSlowdown }},
	{paperValue{"Fig8 gated D overall energy saving", 0.42, 0.30, 0.52},
		func(f [2]experiments.Fig8Result) float64 { return f[0].AvgSavings }},
	{paperValue{"Fig8 gated I overall energy saving", 0.36, 0.28, 0.50},
		func(f [2]experiments.Fig8Result) float64 { return f[1].AvgSavings }},
	{paperValue{"Fig8 D subarrays precharged", 0.10, 0.05, 0.25},
		func(f [2]experiments.Fig8Result) float64 { return f[0].AvgPulled }},
}

// checkBand records a failure when v is outside p's band, and logs every
// comparison to standard error.
func checkBand(rep *report, p paperValue, v float64) {
	verdict := "ok"
	if !p.within(v) {
		verdict = "OUT"
		rep.failf("%s: measured %.4g outside [%.4g, %.4g] (paper %.4g)", p.name, v, p.lo, p.hi, p.paper)
	}
	fmt.Fprintf(os.Stderr, "band %-52s paper %8.4g measured %8.4g [%.4g, %.4g] %s\n",
		p.name, p.paper, v, p.lo, p.hi, verdict)
}

// checkEvaluation compares one figures-quick round with the paper.
func checkEvaluation(rep *report, ev *evaluation) {
	for _, c := range quickValues {
		checkBand(rep, c.paperValue, c.measure(ev))
	}
}
