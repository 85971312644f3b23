// Package sram provides the subarray-level bookkeeping that connects the
// architectural simulation to the circuit-level energy model, following the
// paper's methodology (Sec. 3): "we gather the subarray pull-up/idle time
// distributions from the architectural simulations and combine them with the
// bitline discharge results from the circuit simulations".
//
// Two independent trackers live here:
//
//   - Locality records, per cache, the subarray access recency statistics
//     behind Figs. 5 and 6 (cumulative access distribution versus access
//     frequency, and the time-averaged fraction of hot subarrays).
//   - Ledger records, per precharge policy, the pull-up time and the
//     isolation intervals (reported to an observer as they close) that the
//     energy package prices with the circuit transients.
package sram

import (
	"fmt"

	"nanocache/internal/stats"
)

// DefaultThresholds are the access-frequency thresholds (in cycles between
// accesses) at which the paper plots Figs. 5 and 6: 1, 1/10, 1/100, 1/1000
// and 1/10000 accesses per cycle.
var DefaultThresholds = []uint64{1, 10, 100, 1000, 10000}

// Locality tracks subarray access recency for one cache.
type Locality struct {
	n          int
	thresholds []uint64
	lastAccess []uint64 // cycle of previous access, per subarray
	touched    []bool
	accesses   []uint64 // access count per subarray

	total   uint64
	gapHist *stats.Histogram
	// gapBucketCnt[k] and gapBucketSum[k] count and sum the gaps whose
	// smallest covering threshold is thresholds[k] (k == len(thresholds)
	// for gaps above every threshold). The per-access work is one
	// early-exit scan and two increments; the per-threshold cumulative
	// views (gap CDF, hot cycles) are materialized lazily — prefix sums
	// over these buckets reproduce the per-access accounting exactly.
	gapBucketCnt []uint64
	gapBucketSum []uint64
	hotCycles    []uint64 // sum over gaps of min(gap, thresholds[i]); set by Finalize
	finalized    bool
	endCycle     uint64
}

// NewLocality returns a tracker for n subarrays evaluated at the given
// ascending thresholds (DefaultThresholds if nil).
func NewLocality(n int, thresholds []uint64) *Locality {
	if n <= 0 {
		panic(fmt.Sprintf("sram: subarray count must be positive, got %d", n))
	}
	if thresholds == nil {
		thresholds = DefaultThresholds
	}
	for i := 1; i < len(thresholds); i++ {
		if thresholds[i] <= thresholds[i-1] {
			panic("sram: thresholds must be strictly ascending")
		}
	}
	return &Locality{
		n:          n,
		thresholds: append([]uint64(nil), thresholds...),
		lastAccess: make([]uint64, n),
		touched:    make([]bool, n),
		accesses:   make([]uint64, n),
		gapHist:    stats.NewHistogram(),

		gapBucketCnt: make([]uint64, len(thresholds)+1),
		gapBucketSum: make([]uint64, len(thresholds)+1),
		hotCycles:    make([]uint64, len(thresholds)),
	}
}

// RecordAccess notes an access to subarray sub at the given cycle. Cycles
// must be non-decreasing per subarray; the first access to a subarray
// contributes no gap.
func (l *Locality) RecordAccess(sub int, now uint64) {
	if sub < 0 || sub >= l.n {
		panic(fmt.Sprintf("sram: subarray %d out of range [0,%d)", sub, l.n))
	}
	l.total++
	l.accesses[sub]++
	if l.touched[sub] {
		if now < l.lastAccess[sub] {
			// Out-of-order issue can reorder access timestamps by a few
			// cycles; treat a late-arriving earlier access as simultaneous.
			now = l.lastAccess[sub]
		}
		gap := now - l.lastAccess[sub]
		l.gapHist.Add(gap)
		k := 0
		for k < len(l.thresholds) && gap > l.thresholds[k] {
			k++
		}
		l.gapBucketCnt[k]++
		l.gapBucketSum[k] += gap
	}
	l.touched[sub] = true
	l.lastAccess[sub] = now
}

// Finalize closes the run at the given end cycle, accounting the trailing
// hot time of each touched subarray. It must be called exactly once, after
// the last access.
func (l *Locality) Finalize(end uint64) {
	if l.finalized {
		panic("sram: Locality finalized twice")
	}
	l.finalized = true
	l.endCycle = end
	// Materialize the per-threshold hot-cycle sums from the gap buckets: a
	// gap g contributes min(g, t) at threshold t, i.e. its own length below
	// its covering threshold and t above it — exactly what the former
	// per-access per-threshold loop accumulated.
	var totalGaps uint64
	for _, c := range l.gapBucketCnt {
		totalGaps += c
	}
	var cumSum, cumCnt uint64
	for i, t := range l.thresholds {
		cumSum += l.gapBucketSum[i]
		cumCnt += l.gapBucketCnt[i]
		l.hotCycles[i] = cumSum + t*(totalGaps-cumCnt)
	}
	for s := 0; s < l.n; s++ {
		if !l.touched[s] {
			continue
		}
		tail := end - l.lastAccess[s]
		for i, t := range l.thresholds {
			if tail < t {
				l.hotCycles[i] += tail
			} else {
				l.hotCycles[i] += t
			}
		}
	}
}

// Thresholds returns the evaluation thresholds.
func (l *Locality) Thresholds() []uint64 { return append([]uint64(nil), l.thresholds...) }

// TotalAccesses returns the number of recorded accesses.
func (l *Locality) TotalAccesses() uint64 { return l.total }

// AccessesTo returns the access count of one subarray.
func (l *Locality) AccessesTo(sub int) uint64 { return l.accesses[sub] }

// AccessCDF returns, for each threshold t, the fraction of accesses whose
// gap since the previous access to the same subarray was at most t cycles —
// the paper's Fig. 5 ("fraction of cache accesses versus subarray access
// frequency", frequency = 1/gap).
func (l *Locality) AccessCDF() []float64 {
	out := make([]float64, len(l.thresholds))
	gaps := l.gapHist.Count()
	if gaps == 0 {
		return out
	}
	var cum uint64
	for i := range l.thresholds {
		cum += l.gapBucketCnt[i]
		out[i] = float64(cum) / float64(gaps)
	}
	return out
}

// HotFraction returns, for each threshold t, the time-averaged fraction of
// subarrays whose time-since-last-access was below t — the paper's Fig. 6
// ("fraction of hot subarrays" for a given access-frequency threshold). It
// requires Finalize.
func (l *Locality) HotFraction() []float64 {
	if !l.finalized {
		panic("sram: HotFraction before Finalize")
	}
	out := make([]float64, len(l.thresholds))
	if l.endCycle == 0 {
		return out
	}
	denom := float64(l.endCycle) * float64(l.n)
	for i, c := range l.hotCycles {
		out[i] = float64(c) / denom
	}
	return out
}

// GapHistogram exposes the full inter-access gap distribution for plotting
// beyond the canonical thresholds.
func (l *Locality) GapHistogram() *stats.Histogram { return l.gapHist }

// Subarrays returns the tracked subarray count.
func (l *Locality) Subarrays() int { return l.n }

// IdleObserver receives each closed isolation interval: the subarray, its
// length in cycles, and whether it ended with a re-precharge (true) or with
// the end of the run (false — no pull-up cost is due then).
type IdleObserver func(sub int, idleCycles uint64, reprecharged bool)

// Ledger accumulates the pull-up time and isolation intervals of one cache
// under one precharge policy.
type Ledger struct {
	n        int
	pulled   []uint64
	idle     []uint64
	toggles  uint64
	idleSum  uint64
	idleHist *stats.Histogram
	obs      IdleObserver
}

// NewLedger returns a ledger for n subarrays reporting closed idle intervals
// to obs (which may be nil).
func NewLedger(n int, obs IdleObserver) *Ledger {
	if n <= 0 {
		panic(fmt.Sprintf("sram: subarray count must be positive, got %d", n))
	}
	return &Ledger{
		n:        n,
		pulled:   make([]uint64, n),
		idle:     make([]uint64, n),
		idleHist: stats.NewHistogram(),
		obs:      obs,
	}
}

// AddPulled accounts cycles of pulled-up (statically precharged) time on a
// subarray.
func (g *Ledger) AddPulled(sub int, cycles uint64) {
	if sub < 0 || sub >= g.n {
		panic(fmt.Sprintf("sram: subarray %d out of range [0,%d)", sub, g.n))
	}
	g.pulled[sub] += cycles
}

// EndIdle closes an isolation interval on a subarray. reprecharged is false
// only when the run ends with the subarray still isolated.
func (g *Ledger) EndIdle(sub int, idleCycles uint64, reprecharged bool) {
	if sub < 0 || sub >= g.n {
		panic(fmt.Sprintf("sram: subarray %d out of range [0,%d)", sub, g.n))
	}
	if reprecharged {
		g.toggles++
	}
	g.idle[sub] += idleCycles
	g.idleSum += idleCycles
	g.idleHist.Add(idleCycles)
	if g.obs != nil {
		g.obs(sub, idleCycles, reprecharged)
	}
}

// PulledCycles returns total pulled-up subarray-cycles.
func (g *Ledger) PulledCycles() uint64 {
	var t uint64
	for _, p := range g.pulled {
		t += p
	}
	return t
}

// PulledOn returns the pulled-up cycles of one subarray.
func (g *Ledger) PulledOn(sub int) uint64 { return g.pulled[sub] }

// IdleOn returns the isolated cycles of one subarray (closed intervals only).
func (g *Ledger) IdleOn(sub int) uint64 { return g.idle[sub] }

// IdleCycles returns total isolated subarray-cycles.
func (g *Ledger) IdleCycles() uint64 { return g.idleSum }

// BalanceError returns the worst per-subarray deviation from the
// conservation law every precharge policy must satisfy after Finish:
// pulled-up time + isolated time = wall time, for each subarray. A correct
// controller yields 0; the verify package's conservation rules assert this
// on every run. (Before Finish the open intervals make the balance
// meaningless; callers are expected to have closed the run.)
func (g *Ledger) BalanceError(runCycles uint64) uint64 {
	var worst uint64
	for s := 0; s < g.n; s++ {
		have := g.pulled[s] + g.idle[s]
		var dev uint64
		if have > runCycles {
			dev = have - runCycles
		} else {
			dev = runCycles - have
		}
		if dev > worst {
			worst = dev
		}
	}
	return worst
}

// Toggles returns the number of isolate→precharge transitions.
func (g *Ledger) Toggles() uint64 { return g.toggles }

// IdleHistogram returns the distribution of isolation interval lengths.
func (g *Ledger) IdleHistogram() *stats.Histogram { return g.idleHist }

// Subarrays returns the subarray count.
func (g *Ledger) Subarrays() int { return g.n }

// PulledFraction returns pulled-up time as a fraction of total subarray-time
// over a run of the given length — the paper's "number of precharged
// subarrays" metric of Figs. 8 and 10, normalized to a conventional cache.
func (g *Ledger) PulledFraction(runCycles uint64) float64 {
	if runCycles == 0 {
		return 0
	}
	return float64(g.PulledCycles()) / (float64(runCycles) * float64(g.n))
}
