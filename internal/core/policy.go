// Package core implements the paper's contribution: precharge control
// policies for subarrayed caches built on bitline isolation.
//
//   - StaticPullUp is the conventional baseline (Sec. 2): every subarray's
//     precharge devices stay on; bitlines are never isolated.
//   - Oracle identifies the accessed subarray with perfect accuracy and zero
//     delay, precharges only it for the duration of the access, and isolates
//     everything else (Sec. 4). It bounds the achievable savings.
//   - OnDemand emulates the oracle via partial address decoding, which is
//     perfectly accurate but late: every access pays an extra cycle of
//     latency (Sec. 5, Table 3).
//   - Gated is the proposal (Sec. 6): a decay counter per subarray keeps
//     recently used ("hot") subarrays precharged and isolates the rest;
//     accesses that find their subarray isolated stall one cycle for the
//     pull-up. An optional predecoding hint path (Sec. 6.3) precharges the
//     subarray predicted from a memory op's base register early in the
//     pipeline.
//   - Resizable reproduces the prior-art comparison (Sec. 2, Fig. 9):
//     interval-based cache resizing where only the active subarrays stay
//     pulled up.
//
// Controllers do lazy state tracking — no per-cycle work — and report
// pull-up time and isolation intervals to a sram.Ledger, from which the
// energy package prices every technology node after the fact.
package core

import (
	"fmt"

	"nanocache/internal/sram"
)

// Kind enumerates the precharge policies.
type Kind int

// Policy kinds.
const (
	KindStatic Kind = iota
	KindOracle
	KindOnDemand
	KindGated
	KindResizable
	// KindAdaptiveGated is gated precharging with the online threshold
	// selection of adaptive.go (the paper's future work).
	KindAdaptiveGated
)

// String names the policy kind.
func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static-pullup"
	case KindOracle:
		return "oracle"
	case KindOnDemand:
		return "on-demand"
	case KindGated:
		return "gated"
	case KindResizable:
		return "resizable"
	case KindAdaptiveGated:
		return "gated-adaptive"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Controller is the per-cache precharge policy interface the cache model
// drives. Access cycle numbers must be non-decreasing.
type Controller interface {
	// Name identifies the policy instance.
	Name() string
	// AccessPenalty is invoked when an access to subarray sub begins at
	// cycle now. It updates precharge state and returns the extra stall
	// cycles the access pays because its bitlines were isolated.
	AccessPenalty(sub int, now uint64) int
	// Hint delivers an early subarray prediction (predecoding) at cycle
	// now; the controller may precharge ahead so a correct prediction
	// avoids the access penalty. Wrong hints waste pull-ups.
	Hint(sub int, now uint64)
	// ExtraAccessLatency is the uniform latency the policy adds to every
	// cache access (nonzero only for on-demand precharging).
	ExtraAccessLatency() int
	// Finish closes accounting at the end cycle. Must be called once.
	Finish(end uint64)
	// Ledger exposes the pull-up/idle accounting.
	Ledger() *sram.Ledger
}

// AccessStats is shared bookkeeping for controllers that can stall accesses.
type AccessStats struct {
	// Accesses is the number of accesses seen.
	Accesses uint64
	// Stalled is the number of accesses that found their subarray isolated
	// and paid the pull-up penalty.
	Stalled uint64
	// Hints and HintPullUps count predecoding hints and the subset that
	// actually pulled up an isolated subarray.
	Hints, HintPullUps uint64
}

// StallRate returns the fraction of accesses that stalled.
func (s AccessStats) StallRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Stalled) / float64(s.Accesses)
}

// StaticPullUp is the conventional blind-precharging baseline: all bitlines
// statically pulled up, no isolation ever.
type StaticPullUp struct {
	n      int
	ledger *sram.Ledger
	stats  AccessStats
	done   bool
}

// NewStaticPullUp returns the baseline controller for n subarrays.
func NewStaticPullUp(n int, obs sram.IdleObserver) *StaticPullUp {
	return &StaticPullUp{n: n, ledger: sram.NewLedger(n, obs)}
}

// Name implements Controller.
func (p *StaticPullUp) Name() string { return KindStatic.String() }

// AccessPenalty implements Controller: never a stall.
func (p *StaticPullUp) AccessPenalty(sub int, now uint64) int {
	p.stats.Accesses++
	return 0
}

// Hint implements Controller: ignored, everything is already precharged.
func (p *StaticPullUp) Hint(sub int, now uint64) {}

// ExtraAccessLatency implements Controller.
func (p *StaticPullUp) ExtraAccessLatency() int { return 0 }

// Finish implements Controller: the whole run is pulled-up time.
func (p *StaticPullUp) Finish(end uint64) {
	if p.done {
		panic("core: Finish called twice")
	}
	p.done = true
	for s := 0; s < p.n; s++ {
		p.ledger.AddPulled(s, end)
	}
}

// Ledger implements Controller.
func (p *StaticPullUp) Ledger() *sram.Ledger { return p.ledger }

// Stats returns access statistics.
func (p *StaticPullUp) Stats() AccessStats { return p.stats }

// occupancyTracker is the lazy per-subarray pulled-window bookkeeping shared
// by Oracle and OnDemand: a subarray is pulled up from its first covering
// access until the last covering access ends, then isolated again.
type occupancyTracker struct {
	n         int
	dur       uint64 // cycles a single access keeps the subarray pulled
	ledger    *sram.Ledger
	touched   []bool
	pullAt    []uint64
	busyUntil []uint64
	done      bool
}

func newOccupancyTracker(n int, accessCycles int, obs sram.IdleObserver) *occupancyTracker {
	if accessCycles < 1 {
		panic(fmt.Sprintf("core: access occupancy must be >= 1 cycle, got %d", accessCycles))
	}
	return &occupancyTracker{
		n:         n,
		dur:       uint64(accessCycles),
		ledger:    sram.NewLedger(n, obs),
		touched:   make([]bool, n),
		pullAt:    make([]uint64, n),
		busyUntil: make([]uint64, n),
	}
}

// access records an access at cycle now and reports whether the subarray was
// isolated when it arrived.
func (o *occupancyTracker) access(sub int, now uint64) (wasIsolated bool) {
	switch {
	case !o.touched[sub]:
		// Isolated since cycle 0.
		o.touched[sub] = true
		o.ledger.EndIdle(sub, now, true)
		wasIsolated = true
		o.pullAt[sub] = now
		o.busyUntil[sub] = now + o.dur
	case now >= o.busyUntil[sub]:
		// The previous pulled window closed at busyUntil; it has been
		// isolated since.
		o.ledger.AddPulled(sub, o.busyUntil[sub]-o.pullAt[sub])
		o.ledger.EndIdle(sub, now-o.busyUntil[sub], true)
		wasIsolated = true
		o.pullAt[sub] = now
		o.busyUntil[sub] = now + o.dur
	default:
		// Still pulled up; extend the window.
		if now+o.dur > o.busyUntil[sub] {
			o.busyUntil[sub] = now + o.dur
		}
	}
	return wasIsolated
}

func (o *occupancyTracker) finish(end uint64) {
	if o.done {
		panic("core: Finish called twice")
	}
	o.done = true
	for s := 0; s < o.n; s++ {
		switch {
		case !o.touched[s]:
			o.ledger.EndIdle(s, end, false)
		case end >= o.busyUntil[s]:
			o.ledger.AddPulled(s, o.busyUntil[s]-o.pullAt[s])
			o.ledger.EndIdle(s, end-o.busyUntil[s], false)
		default:
			o.ledger.AddPulled(s, end-o.pullAt[s])
		}
	}
}

// Oracle is the ideal policy of Sec. 4: perfect, zero-delay subarray
// identification. Only the accessed subarray is precharged, only while the
// access needs it, and no access ever stalls.
type Oracle struct {
	occ   *occupancyTracker
	stats AccessStats
}

// NewOracle returns an oracle controller for n subarrays whose accesses
// occupy a subarray for accessCycles.
func NewOracle(n, accessCycles int, obs sram.IdleObserver) *Oracle {
	return &Oracle{occ: newOccupancyTracker(n, accessCycles, obs)}
}

// Name implements Controller.
func (p *Oracle) Name() string { return KindOracle.String() }

// AccessPenalty implements Controller: the oracle is always timely.
func (p *Oracle) AccessPenalty(sub int, now uint64) int {
	p.stats.Accesses++
	p.occ.access(sub, now)
	return 0
}

// Hint implements Controller: the oracle needs no hints.
func (p *Oracle) Hint(sub int, now uint64) {}

// ExtraAccessLatency implements Controller.
func (p *Oracle) ExtraAccessLatency() int { return 0 }

// Finish implements Controller.
func (p *Oracle) Finish(end uint64) { p.occ.finish(end) }

// Ledger implements Controller.
func (p *Oracle) Ledger() *sram.Ledger { return p.occ.ledger }

// Stats returns access statistics.
func (p *Oracle) Stats() AccessStats { return p.stats }

// OnDemand emulates the oracle by partially decoding the address on every
// access (Sec. 5). Identification is perfectly accurate, so the pull-up
// schedule matches the oracle's; but it is late — the worst-case bitline
// pull-up exceeds the post-partial-decode margin (Table 3) — so every access
// pays extra latency.
type OnDemand struct {
	occ   *occupancyTracker
	extra int
	stats AccessStats
}

// NewOnDemand returns an on-demand controller; extraLatency is the uniform
// access-latency increase (one cycle in every configuration the paper
// studies — see cacti.Model.OnDemandExtraCycles).
func NewOnDemand(n, accessCycles, extraLatency int, obs sram.IdleObserver) *OnDemand {
	if extraLatency < 0 {
		panic("core: negative extra latency")
	}
	return &OnDemand{occ: newOccupancyTracker(n, accessCycles, obs), extra: extraLatency}
}

// Name implements Controller.
func (p *OnDemand) Name() string { return KindOnDemand.String() }

// AccessPenalty implements Controller. The on-demand cost is modeled as the
// uniform ExtraAccessLatency, not a per-access stall, because the pipeline
// schedules around the longer (but fixed) latency.
func (p *OnDemand) AccessPenalty(sub int, now uint64) int {
	p.stats.Accesses++
	p.occ.access(sub, now)
	return 0
}

// Hint implements Controller: identification is on demand, hints are unused.
func (p *OnDemand) Hint(sub int, now uint64) {}

// ExtraAccessLatency implements Controller.
func (p *OnDemand) ExtraAccessLatency() int { return p.extra }

// Finish implements Controller.
func (p *OnDemand) Finish(end uint64) { p.occ.finish(end) }

// Ledger implements Controller.
func (p *OnDemand) Ledger() *sram.Ledger { return p.occ.ledger }

// Stats returns access statistics.
func (p *OnDemand) Stats() AccessStats { return p.stats }
