package core

import (
	"fmt"

	"nanocache/internal/sram"
)

// Gated implements gated precharging (Sec. 6, Fig. 7): every subarray has a
// decay counter that resets on access and increments each cycle; while the
// counter is below the threshold the subarray is hot and stays precharged,
// otherwise its bitlines are isolated. An access to an isolated subarray
// stalls for the bitline pull-up (one cycle, Table 3).
//
// The implementation is lazy and behaviourally identical to per-cycle
// counters (proved by a property test): instead of ticking n counters every
// cycle it records each subarray's last use; the subarray is hot at cycle t
// iff t − lastUse < threshold, and the isolation event is materialized at
// lastUse + threshold when the next access (or the end of the run) observes
// it. BenchmarkAblationCounters quantifies the win.
type Gated struct {
	n         int
	threshold uint64
	penalty   int
	ledger    *sram.Ledger

	touched []bool
	pullAt  []uint64
	lastUse []uint64

	stats AccessStats
	done  bool
}

// CounterBits is the decay-counter width; the paper finds 10 bits
// sufficient (Sec. 6.2), bounding thresholds at 1023 cycles.
const CounterBits = 10

// MaxThreshold is the largest representable decay threshold.
const MaxThreshold = 1<<CounterBits - 1

// NewGated returns a gated-precharging controller for n subarrays.
// threshold is the decay threshold in cycles (1..MaxThreshold); penalty is
// the stall paid by an access that finds its subarray isolated.
func NewGated(n int, threshold uint64, penalty int, obs sram.IdleObserver) *Gated {
	if threshold < 1 || threshold > MaxThreshold {
		panic(fmt.Sprintf("core: gated threshold %d outside [1, %d]", threshold, MaxThreshold))
	}
	if penalty < 0 {
		panic("core: negative penalty")
	}
	return &Gated{
		n:         n,
		threshold: threshold,
		penalty:   penalty,
		ledger:    sram.NewLedger(n, obs),
		touched:   make([]bool, n),
		pullAt:    make([]uint64, n),
		lastUse:   make([]uint64, n),
	}
}

// Name implements Controller.
func (p *Gated) Name() string { return fmt.Sprintf("%s(t=%d)", KindGated, p.threshold) }

// Threshold returns the decay threshold.
func (p *Gated) Threshold() uint64 { return p.threshold }

// isolatedAt reports whether the subarray is isolated at cycle now, and if
// so since when.
func (p *Gated) isolatedAt(sub int, now uint64) (since uint64, isolated bool) {
	if !p.touched[sub] {
		return 0, true
	}
	isoAt := p.lastUse[sub] + p.threshold
	if now >= isoAt {
		return isoAt, true
	}
	return 0, false
}

// wake pulls the subarray up at cycle now, closing its idle interval and
// pulled window bookkeeping. It must only be called when isolated.
func (p *Gated) wake(sub int, now, isolatedSince uint64) {
	if p.touched[sub] {
		p.ledger.AddPulled(sub, isolatedSince-p.pullAt[sub])
	}
	p.ledger.EndIdle(sub, now-isolatedSince, true)
	p.touched[sub] = true
	p.pullAt[sub] = now
}

// AccessPenalty implements Controller.
func (p *Gated) AccessPenalty(sub int, now uint64) int {
	p.stats.Accesses++
	if p.touched[sub] && now < p.lastUse[sub] {
		// Out-of-order issue reorders timestamps by a few cycles; a
		// late-arriving earlier access hits a still-hot subarray.
		return 0
	}
	pen := 0
	if since, isolated := p.isolatedAt(sub, now); isolated {
		p.wake(sub, now, since)
		p.stats.Stalled++
		pen = p.penalty
	}
	// The stalled access completes at now+pen, and the subarray cannot
	// decay while its own pull-up is in flight — so the decay clock
	// restarts from completion, not issue. Dating it from `now` livelocked
	// instruction fetch at thresholds ≤ the pull-up penalty: the retry
	// found the subarray re-isolated, stalled again, forever.
	p.lastUse[sub] = now + uint64(pen)
	return pen
}

// Hint implements Controller: a predecoding hint precharges the predicted
// subarray ahead of the access (Sec. 6.3). A correct hint converts a stall
// into a free pull-up; a wrong one wastes a pull-up and keeps the subarray
// hot for a threshold's worth of cycles.
func (p *Gated) Hint(sub int, now uint64) {
	p.stats.Hints++
	if p.touched[sub] && now < p.lastUse[sub] {
		return
	}
	if since, isolated := p.isolatedAt(sub, now); isolated {
		p.wake(sub, now, since)
		p.stats.HintPullUps++
	}
	p.lastUse[sub] = now
}

// ExtraAccessLatency implements Controller.
func (p *Gated) ExtraAccessLatency() int { return 0 }

// Finish implements Controller.
func (p *Gated) Finish(end uint64) {
	if p.done {
		panic("core: Finish called twice")
	}
	p.done = true
	for s := 0; s < p.n; s++ {
		if !p.touched[s] {
			p.ledger.EndIdle(s, end, false)
			continue
		}
		isoAt := p.lastUse[s] + p.threshold
		if end >= isoAt {
			p.ledger.AddPulled(s, isoAt-p.pullAt[s])
			p.ledger.EndIdle(s, end-isoAt, false)
		} else {
			p.ledger.AddPulled(s, end-p.pullAt[s])
		}
	}
}

// Ledger implements Controller.
func (p *Gated) Ledger() *sram.Ledger { return p.ledger }

// Stats returns access statistics, including stall and hint counts.
func (p *Gated) Stats() AccessStats { return p.stats }
