package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nanocache/internal/sram"
)

func TestGatedKeepsHotSubarrayPrecharged(t *testing.T) {
	p := NewGated(2, 100, 1, nil)
	// First access: cold, pays the pull-up stall.
	if pen := p.AccessPenalty(0, 10); pen != 1 {
		t.Fatalf("cold access penalty = %d, want 1", pen)
	}
	// Re-access within the threshold: hot, free.
	if pen := p.AccessPenalty(0, 50); pen != 0 {
		t.Fatalf("hot access penalty = %d, want 0", pen)
	}
	// Re-access after decay: cold again.
	if pen := p.AccessPenalty(0, 50+101); pen != 1 {
		t.Fatalf("decayed access penalty = %d, want 1", pen)
	}
	st := p.Stats()
	if st.Accesses != 3 || st.Stalled != 2 {
		t.Errorf("stats = %+v", st)
	}
	if p.Threshold() != 100 {
		t.Error("threshold accessor wrong")
	}
}

func TestGatedAccounting(t *testing.T) {
	// Single subarray, threshold 10, accesses at 100 and 105, end at 1000.
	p := NewGated(1, 10, 1, nil)
	p.AccessPenalty(0, 100)
	p.AccessPenalty(0, 105)
	p.Finish(1000)
	led := p.Ledger()
	// Pulled: [100, 115) = 15 cycles (last use 105 + threshold 10).
	if led.PulledCycles() != 15 {
		t.Errorf("pulled = %d, want 15", led.PulledCycles())
	}
	// Idle: [0,100) reprecharged, [115,1000) end-of-run.
	if led.IdleCycles() != 100+885 {
		t.Errorf("idle = %d, want 985", led.IdleCycles())
	}
	if led.Toggles() != 1 {
		t.Errorf("toggles = %d, want 1", led.Toggles())
	}
	if led.PulledCycles()+led.IdleCycles() != 1000 {
		t.Error("conservation violated")
	}
}

func TestGatedHintAvoidsStall(t *testing.T) {
	p := NewGated(2, 50, 1, nil)
	// Predecode hint precharges subarray 1 ahead of its access.
	p.Hint(1, 90)
	if pen := p.AccessPenalty(1, 95); pen != 0 {
		t.Fatalf("hinted access stalled (penalty %d)", pen)
	}
	// A wrong hint pulls up a subarray that is then never used.
	p.Hint(0, 200)
	p.Finish(500)
	st := p.Stats()
	if st.Hints != 2 || st.HintPullUps != 2 {
		t.Errorf("hint stats = %+v", st)
	}
	if st.Stalled != 0 {
		t.Error("no access should have stalled")
	}
	// The wrong hint cost a pulled window on subarray 0: [200, 250).
	if p.Ledger().PulledOn(0) != 50 {
		t.Errorf("wasted pull window = %d, want 50", p.Ledger().PulledOn(0))
	}
}

func TestGatedThresholdValidation(t *testing.T) {
	for _, thr := range []uint64{0, MaxThreshold + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("threshold %d should panic", thr)
				}
			}()
			NewGated(1, thr, 1, nil)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative penalty should panic")
			}
		}()
		NewGated(1, 10, -1, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("eager bad threshold should panic")
			}
		}()
		NewEagerGated(1, 0, 1, nil)
	}()
}

func TestGatedConservationProperty(t *testing.T) {
	f := func(raw []uint16, thrRaw uint16, nsub uint8) bool {
		n := int(nsub%6) + 1
		thr := uint64(thrRaw%MaxThreshold) + 1
		p := NewGated(n, thr, 1, nil)
		var now uint64
		for _, r := range raw {
			now += uint64(r % 2048)
			p.AccessPenalty(int(uint64(r)%uint64(n)), now)
		}
		end := now + uint64(thrRaw) + 1
		p.Finish(end)
		led := p.Ledger()
		return led.PulledCycles()+led.IdleCycles() == uint64(n)*end
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLazyMatchesEagerGated proves the lazy implementation is behaviourally
// identical to the per-cycle hardware reference: same stalls, same pulled
// time, same toggles, same idle time, for random access/hint interleavings.
func TestLazyMatchesEagerGated(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		thr := uint64(1 + rng.Intn(MaxThreshold))
		lazy := NewGated(n, thr, 1, nil)
		eager := NewEagerGated(n, thr, 1, nil)
		var now uint64
		for i := 0; i < 200; i++ {
			now += uint64(rng.Intn(2000))
			sub := rng.Intn(n)
			if rng.Intn(4) == 0 {
				lazy.Hint(sub, now)
				eager.Hint(sub, now)
				continue
			}
			pl := lazy.AccessPenalty(sub, now)
			pe := eager.AccessPenalty(sub, now)
			if pl != pe {
				t.Fatalf("trial %d step %d: lazy penalty %d vs eager %d (n=%d thr=%d now=%d)",
					trial, i, pl, pe, n, thr, now)
			}
		}
		end := now + uint64(rng.Intn(3000))
		lazy.Finish(end)
		eager.Finish(end)
		ll, le := lazy.Ledger(), eager.Ledger()
		if ll.PulledCycles() != le.PulledCycles() {
			t.Fatalf("trial %d: pulled %d vs %d", trial, ll.PulledCycles(), le.PulledCycles())
		}
		if ll.Toggles() != le.Toggles() {
			t.Fatalf("trial %d: toggles %d vs %d", trial, ll.Toggles(), le.Toggles())
		}
		if ll.IdleCycles() != le.IdleCycles() {
			t.Fatalf("trial %d: idle %d vs %d", trial, ll.IdleCycles(), le.IdleCycles())
		}
		if lazy.Stats() != eager.Stats() {
			t.Fatalf("trial %d: stats %+v vs %+v", trial, lazy.Stats(), eager.Stats())
		}
	}
}

func TestGatedSmallerThresholdPullsLess(t *testing.T) {
	run := func(thr uint64) uint64 {
		p := NewGated(4, thr, 1, nil)
		rng := rand.New(rand.NewSource(5))
		var now uint64
		for i := 0; i < 2000; i++ {
			now += uint64(1 + rng.Intn(40))
			p.AccessPenalty(rng.Intn(4), now)
		}
		p.Finish(now + 1000)
		return p.Ledger().PulledCycles()
	}
	small, large := run(8), run(1000)
	if small >= large {
		t.Errorf("threshold 8 pulled %d >= threshold 1000 pulled %d", small, large)
	}
}

func TestGatedNameIncludesThreshold(t *testing.T) {
	p := NewGated(1, 128, 1, nil)
	if p.Name() != "gated(t=128)" {
		t.Errorf("name = %q", p.Name())
	}
	e := NewEagerGated(1, 128, 1, nil)
	if e.Name() != "gated-eager(t=128)" {
		t.Errorf("eager name = %q", e.Name())
	}
	if p.ExtraAccessLatency() != 0 || e.ExtraAccessLatency() != 0 {
		t.Error("gated adds no uniform latency")
	}
}

func TestGatedDoubleFinishPanics(t *testing.T) {
	p := NewGated(1, 10, 1, nil)
	p.Finish(5)
	defer func() {
		if recover() == nil {
			t.Fatal("second Finish should panic")
		}
	}()
	p.Finish(6)
}

// BenchmarkAblationCounters quantifies the lazy-counter design decision
// called out in DESIGN.md §6: lazy last-use bookkeeping versus materializing
// every decay counter every cycle.
func BenchmarkAblationCounters(b *testing.B) {
	const n, thr = 32, 100
	pattern := make([]struct {
		sub int
		at  uint64
	}, 4096)
	rng := rand.New(rand.NewSource(7))
	var now uint64
	for i := range pattern {
		now += uint64(1 + rng.Intn(6))
		pattern[i].sub = rng.Intn(n)
		pattern[i].at = now
	}
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := NewGated(n, thr, 1, nil)
			for _, a := range pattern {
				p.AccessPenalty(a.sub, a.at)
			}
			p.Finish(now + 1)
		}
	})
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := NewEagerGated(n, thr, 1, nil)
			for _, a := range pattern {
				p.AccessPenalty(a.sub, a.at)
			}
			p.Finish(now + 1)
		}
	})
}

func TestGatedOutOfOrderTimestamps(t *testing.T) {
	// A late-arriving earlier access must not stall, regress lastUse, or
	// break conservation.
	p := NewGated(2, 50, 1, nil)
	p.AccessPenalty(0, 100)
	if pen := p.AccessPenalty(0, 90); pen != 0 {
		t.Errorf("late-arriving access stalled: %d", pen)
	}
	p.Hint(0, 80) // stale hint, ignored
	p.Finish(1000)
	led := p.Ledger()
	if led.PulledCycles()+led.IdleCycles() != 2*1000 {
		t.Error("conservation violated with out-of-order timestamps")
	}
	// Pulled window must still end at 101+50 (the stalled access completes
	// at 101 and the decay clock restarts there).
	if led.PulledOn(0) != 51 {
		t.Errorf("pulled = %d, want 51", led.PulledOn(0))
	}
}

// EagerGated is the naive reference implementation of gated precharging
// that materializes every decay counter every cycle, exactly as the
// hardware of Fig. 7 does. It exists to validate Gated's lazy bookkeeping
// (a property test asserts identical stalls, pulled time, toggles and idle
// intervals) and to ablate the cost (BenchmarkAblationCounters). Unlike
// Gated it needs Tick called once per cycle.
type EagerGated struct {
	n         int
	threshold uint64
	penalty   int
	ledger    *sram.Ledger

	counter    []uint64
	precharged []bool
	pullAt     []uint64
	isoAt      []uint64
	everUsed   []bool
	// holdUntil freezes a subarray's decay counter until its in-flight
	// pull-up completes (accesses that stalled restart decay at now+pen,
	// mirroring Gated.AccessPenalty's completion-time bookkeeping).
	holdUntil []uint64

	now   uint64
	stats AccessStats
	done  bool
}

// NewEagerGated returns the per-cycle reference implementation.
func NewEagerGated(n int, threshold uint64, penalty int, obs sram.IdleObserver) *EagerGated {
	if threshold < 1 || threshold > MaxThreshold {
		panic(fmt.Sprintf("core: gated threshold %d outside [1, %d]", threshold, MaxThreshold))
	}
	g := &EagerGated{
		n:          n,
		threshold:  threshold,
		penalty:    penalty,
		ledger:     sram.NewLedger(n, obs),
		counter:    make([]uint64, n),
		precharged: make([]bool, n),
		pullAt:     make([]uint64, n),
		isoAt:      make([]uint64, n),
		everUsed:   make([]bool, n),
		holdUntil:  make([]uint64, n),
	}
	for s := 0; s < n; s++ {
		g.counter[s] = threshold // start cold
	}
	return g
}

// Tick advances the clock to cycle now, saturating counters and isolating
// subarrays whose counters cross the threshold. now must be non-decreasing.
func (g *EagerGated) Tick(now uint64) {
	for ; g.now < now; g.now++ {
		for s := 0; s < g.n; s++ {
			if g.now < g.holdUntil[s] {
				continue // pull-up in flight: the counter cannot decay yet
			}
			if g.counter[s] < g.threshold {
				g.counter[s]++
				if g.counter[s] >= g.threshold && g.precharged[s] {
					g.precharged[s] = false
					g.isoAt[s] = g.now + 1
					g.ledger.AddPulled(s, g.now+1-g.pullAt[s])
				}
			}
		}
	}
}

// Name implements Controller.
func (g *EagerGated) Name() string { return fmt.Sprintf("%s-eager(t=%d)", KindGated, g.threshold) }

// AccessPenalty implements Controller. Tick must have advanced to now.
func (g *EagerGated) AccessPenalty(sub int, now uint64) int {
	g.Tick(now)
	g.stats.Accesses++
	pen := 0
	if !g.precharged[sub] {
		g.ledger.EndIdle(sub, now-g.isoAt[sub], true)
		g.precharged[sub] = true
		g.pullAt[sub] = now
		g.everUsed[sub] = true
		g.stats.Stalled++
		pen = g.penalty
		// Freeze the counter until the pull-up completes (see holdUntil).
		g.holdUntil[sub] = now + uint64(pen)
	}
	g.counter[sub] = 0
	return pen
}

// Hint implements Controller.
func (g *EagerGated) Hint(sub int, now uint64) {
	g.Tick(now)
	g.stats.Hints++
	if !g.precharged[sub] {
		g.ledger.EndIdle(sub, now-g.isoAt[sub], true)
		g.precharged[sub] = true
		g.pullAt[sub] = now
		g.everUsed[sub] = true
		g.stats.HintPullUps++
	}
	g.counter[sub] = 0
}

// ExtraAccessLatency implements Controller.
func (g *EagerGated) ExtraAccessLatency() int { return 0 }

// Finish implements Controller.
func (g *EagerGated) Finish(end uint64) {
	if g.done {
		panic("core: Finish called twice")
	}
	g.done = true
	g.Tick(end)
	for s := 0; s < g.n; s++ {
		if g.precharged[s] {
			g.ledger.AddPulled(s, end-g.pullAt[s])
		} else {
			g.ledger.EndIdle(s, end-g.isoAt[s], false)
		}
	}
}

// Ledger implements Controller.
func (g *EagerGated) Ledger() *sram.Ledger { return g.ledger }

// Stats returns access statistics.
func (g *EagerGated) Stats() AccessStats { return g.stats }
