package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"nanocache/internal/power"
	"nanocache/internal/stats"
	"nanocache/internal/tech"
)

// ProcessorResult is the processor-level energy evaluation behind two of
// the paper's claims: that L1 caches account for a significant and growing
// share of processor energy (Sec. 1), and that gated precharging's
// replay-induced extra work costs under 1% of processor energy while the
// cache-side savings dominate (Sec. 6.4).
type ProcessorResult struct {
	// CacheShare[node] is the benchmark-average share of processor energy
	// spent in the two L1 caches under conventional static pull-up.
	CacheShare map[tech.Node]float64
	// ReplayOverhead is the benchmark-average energy of the extra work
	// gated precharging's replays cause — re-issued micro-ops plus their
	// repeated cache accesses — relative to total processor energy (the
	// paper bounds this below 1%, Sec. 6.4).
	ReplayOverhead float64
	// NetSavings is the benchmark-average processor-level energy saving of
	// gated precharging (cache savings minus replay overhead) at 70nm.
	NetSavings float64
	// Budget is one representative conventional budget at 70nm for
	// rendering.
	Budget power.Budget
}

// Processor runs the processor-level evaluation over the lab's benchmarks.
// Benchmarks fan across the worker pool; the merge walks them in input
// order.
func (l *Lab) Processor() (ProcessorResult, error) {
	benches := l.opts.benchmarks()
	type cell struct {
		shares            []float64 // per tech.Nodes entry
		overhead, savings float64
		budget            power.Budget
	}
	cells := make([]cell, len(benches))
	if err := l.forEach(len(benches), func(idx int) error {
		bench := benches[idx]
		base, err := l.Baseline(bench)
		if err != nil {
			return err
		}
		gated, err := l.run(l.runConfig(bench,
			GatedPolicy(l.opts.ConstantThreshold, true),
			GatedPolicy(l.opts.ConstantThreshold, false)))
		if err != nil {
			return err
		}
		baseAct := power.FromResult(base.CPU)
		gatedAct := power.FromResult(gated.CPU)
		c := cell{shares: make([]float64, len(tech.Nodes))}
		for ni, n := range tech.Nodes {
			b := power.Processor(n, baseAct, base.D.Energy[n], base.I.Energy[n])
			c.shares[ni] = b.CacheShare()
			if n == tech.N70 {
				g := power.Processor(n, gatedAct, gated.D.Energy[n], gated.I.Energy[n])
				// The replays' own work: extra issued micro-ops (beyond the
				// baseline's miss-driven replays) plus the repeated data-
				// cache accesses they perform.
				extraUops := float64(int64(gatedAct.IssuedUops) - int64(baseAct.IssuedUops))
				extraAcc := float64(int64(gated.D.Accesses) - int64(base.D.Accesses))
				if extraUops < 0 {
					extraUops = 0
				}
				if extraAcc < 0 {
					extraAcc = 0
				}
				replayE := extraUops*power.PerUopEnergy(n) +
					extraAcc*gated.D.Energy[n].Dynamic/float64(maxU(gated.D.Accesses, 1))
				c.overhead = replayE / b.Total()
				c.savings = 1 - g.Total()/b.Total()
				c.budget = b
			}
		}
		cells[idx] = c
		l.note("processor %s: replays %d -> %d", bench, base.CPU.Replays, gated.CPU.Replays)
		return nil
	}); err != nil {
		return ProcessorResult{}, err
	}
	r := ProcessorResult{CacheShare: make(map[tech.Node]float64)}
	var overheads, savings []float64
	for _, c := range cells {
		overheads = append(overheads, c.overhead)
		savings = append(savings, c.savings)
		if r.Budget.Node == 0 {
			r.Budget = c.budget
		}
	}
	for ni, n := range tech.Nodes {
		shares := make([]float64, len(cells))
		for i, c := range cells {
			shares[i] = c.shares[ni]
		}
		r.CacheShare[n] = stats.Mean(shares)
	}
	r.ReplayOverhead = stats.Mean(overheads)
	r.NetSavings = stats.Mean(savings)
	return r, nil
}

// Render writes the processor-level results.
func (r ProcessorResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Processor-level energy (Wattch-style accounting)")
	fmt.Fprint(tw, "L1 caches' share of processor energy:")
	for _, n := range tech.Nodes {
		fmt.Fprintf(tw, "\t%v %.1f%%", n, r.CacheShare[n]*100)
	}
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "replayed-work energy (uops + repeated accesses)\t%.2f%% of processor energy (paper: < 1%%)\n",
		r.ReplayOverhead*100)
	fmt.Fprintf(tw, "net processor energy saving from gated precharging (70nm)\t%.1f%%\n",
		r.NetSavings*100)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return r.Budget.Render(w)
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
