package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"nanocache/internal/stats"
)

// SensitivityResult quantifies how much the headline numbers move with the
// synthetic-workload seed — the reproduction's analogue of run-to-run
// variation. Small spreads mean the conclusions do not hinge on one
// particular random stream.
type SensitivityResult struct {
	Seeds []int64
	// OracleD, GatedD and OnDemandD summarize the per-seed values of three
	// headline metrics for the data cache at 70nm: oracle discharge
	// reduction, gated (constant threshold) discharge reduction, and the
	// on-demand slowdown.
	OracleD, GatedD, OnDemandD *stats.Summary
}

// Sensitivity reruns three headline measurements across seeds on the lab's
// benchmark subset. The lab's own seed reuses its memoized runs; every
// other seed builds its own runs over a cell-local trace and leaves the
// memo alone. The (seed × benchmark) grid fans across the worker pool; the
// per-seed summaries accumulate in seed order afterwards.
// The (seed × benchmark) cells and the merge are shared with the figure's
// registered Decomposition (decompose_sensitivity.go).
func (l *Lab) Sensitivity(seeds []int64) (SensitivityResult, error) {
	seeds = sensitivitySeeds(seeds)
	benches := l.opts.benchmarks()
	cells := make([]SensitivityCell, len(seeds)*len(benches))
	if err := l.forEach(len(cells), func(idx int) error {
		c, err := l.sensitivityCell(seeds[idx/len(benches)], benches[idx%len(benches)])
		if err != nil {
			return err
		}
		cells[idx] = c
		return nil
	}); err != nil {
		return SensitivityResult{}, err
	}
	return assembleSensitivity(l, seeds, benches, cells), nil
}

// Render writes the spread table.
func (r SensitivityResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Seed sensitivity over seeds %v (data cache, 70nm)\n", r.Seeds)
	fmt.Fprintln(tw, "metric\tmean\tstddev\tmin\tmax")
	row := func(name string, s *stats.Summary) {
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.4f\n", name, s.Mean(), s.StdDev(), s.Min(), s.Max())
	}
	row("oracle discharge reduction", r.OracleD)
	row("gated (const thr) discharge reduction", r.GatedD)
	row("on-demand slowdown", r.OnDemandD)
	return tw.Flush()
}
