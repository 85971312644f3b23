// Package energy implements the paper's energy-combination methodology
// (Sec. 3): the architectural simulation runs once — cycle counts are
// technology-independent under the 8-FO4 clock — producing per-subarray
// pull-up times and isolation intervals, which are then priced at every
// CMOS node with the circuit-level transients of internal/circuit.
//
// All energies are in "static-ns" units: the static bitline discharge power
// of one subarray is 1.0, so a conventional cache dissipates
// subarrays × runNS through its bitlines over a run.
package energy

import (
	"fmt"
	"math"
	"sync"

	"nanocache/internal/cacti"
	"nanocache/internal/circuit"
	"nanocache/internal/sram"
	"nanocache/internal/tech"
)

// Pricer converts isolation intervals into bitline energy at every node as
// they close. Attach its Observer to the controller's ledger before the run.
type Pricer struct {
	nodes      []tech.Node
	transients []circuit.IsolationTransient
	cycleNS    []float64
	memo       []*transientMemo // per node, shared process-wide
	idleEnergy []float64        // accumulated, per node, static-ns
	intervals  uint64
}

// transientMemo caches a node's priced interval energies for short idle
// lengths. The transient curves are fixed per node (the cycle time and the
// circuit constants are Table 1 values), so the observer's exp()-heavy
// Energy/PullUpEnergy evaluations repeat the same handful of inputs millions
// of times per sweep; the memo replaces them with two array reads. Entries
// are computed by exactly the expressions the slow path uses, so priced
// results are bit-identical with or without the memo. Tables are built once
// per (node) process-wide and are immutable afterwards, hence safe for the
// lab's concurrent workers.
type transientMemo struct {
	energy   []float64 // Energy(T) for idleCycles = index
	withPull []float64 // Energy(T) + PullUpEnergy(T)
}

// transientMemoCycles bounds the memoized idle length. Gated thresholds cap
// at 1023 cycles and most closed intervals are within a few thresholds;
// longer tails (cold subarrays closed at end of run) take the slow path.
const transientMemoCycles = 4096

var (
	transientMemoMu  sync.Mutex
	transientMemoTab = map[tech.Node]*transientMemo{}
)

func memoFor(n tech.Node) *transientMemo {
	transientMemoMu.Lock()
	defer transientMemoMu.Unlock()
	if m, ok := transientMemoTab[n]; ok {
		return m
	}
	tr := circuit.TransientFor(n)
	cyc := tech.ParamsFor(n).CycleTime
	m := &transientMemo{
		energy:   make([]float64, transientMemoCycles),
		withPull: make([]float64, transientMemoCycles),
	}
	for c := 0; c < transientMemoCycles; c++ {
		T := float64(c) * cyc
		e := tr.Energy(T)
		m.energy[c] = e
		m.withPull[c] = e + tr.PullUpEnergy(T)
	}
	transientMemoTab[n] = m
	return m
}

// NewPricer prices at the given nodes (all four studied generations if none
// are specified).
func NewPricer(nodes ...tech.Node) *Pricer {
	if len(nodes) == 0 {
		nodes = tech.Nodes
	}
	p := &Pricer{
		nodes:      append([]tech.Node(nil), nodes...),
		transients: make([]circuit.IsolationTransient, len(nodes)),
		cycleNS:    make([]float64, len(nodes)),
		memo:       make([]*transientMemo, len(nodes)),
		idleEnergy: make([]float64, len(nodes)),
	}
	for i, n := range nodes {
		p.transients[i] = circuit.TransientFor(n)
		p.cycleNS[i] = tech.ParamsFor(n).CycleTime
		p.memo[i] = memoFor(n)
	}
	return p
}

// Observer returns the sram.IdleObserver that prices every closed isolation
// interval.
func (p *Pricer) Observer() sram.IdleObserver {
	return func(sub int, idleCycles uint64, reprecharged bool) {
		p.intervals++
		if idleCycles < transientMemoCycles {
			// Memoized fast path: identical floats to the computation below
			// (the tables are filled by the same expressions).
			for i := range p.nodes {
				m := p.memo[i]
				if reprecharged {
					p.idleEnergy[i] += m.withPull[idleCycles]
				} else {
					p.idleEnergy[i] += m.energy[idleCycles]
				}
			}
			return
		}
		for i := range p.nodes {
			T := float64(idleCycles) * p.cycleNS[i]
			e := p.transients[i].Energy(T)
			if reprecharged {
				e += p.transients[i].PullUpEnergy(T)
			}
			p.idleEnergy[i] += e
		}
	}
}

// Intervals returns the number of priced isolation intervals.
func (p *Pricer) Intervals() uint64 { return p.intervals }

// Nodes returns the pricing nodes.
func (p *Pricer) Nodes() []tech.Node { return append([]tech.Node(nil), p.nodes...) }

// Discharge is the bitline-discharge account of one cache under one policy
// at one node.
type Discharge struct {
	Node tech.Node
	// PulledEnergy is the discharge of statically pulled-up subarray time.
	PulledEnergy float64
	// IdleEnergy is the discharge (plus toggle overhead) of isolated time.
	IdleEnergy float64
	// StaticEnergy is what a conventional cache would have dissipated.
	StaticEnergy float64
}

// Total returns the policy's total bitline discharge.
func (d Discharge) Total() float64 { return d.PulledEnergy + d.IdleEnergy }

// Relative returns the policy's discharge relative to the conventional
// statically pulled-up cache — the y-axis of the paper's Figs. 3, 8 and 9.
func (d Discharge) Relative() float64 {
	if d.StaticEnergy == 0 {
		return 0
	}
	return d.Total() / d.StaticEnergy
}

// Reduction returns 1 − Relative, the paper's "discharge savings".
func (d Discharge) Reduction() float64 { return 1 - d.Relative() }

// Check validates the account's internal conservation laws: every component
// finite and non-negative, and the policy's total discharge never exceeding
// what the conventional statically pulled-up cache would have dissipated by
// more than the toggle overhead allows in the pulled component alone
// (PulledEnergy ≤ StaticEnergy). The verify package applies this to every
// run outcome.
func (d Discharge) Check() error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"pulled", d.PulledEnergy},
		{"idle", d.IdleEnergy},
		{"static", d.StaticEnergy},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) || c.v < 0 {
			return fmt.Errorf("energy: %s %s discharge component is %v", d.Node, c.name, c.v)
		}
	}
	if d.PulledEnergy > d.StaticEnergy*(1+1e-9) {
		return fmt.Errorf("energy: %s pulled discharge %.6g exceeds the static bound %.6g",
			d.Node, d.PulledEnergy, d.StaticEnergy)
	}
	return nil
}

// Check validates the full account: every component finite and non-negative.
func (e CacheEnergy) Check() error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"bitline", e.Bitline},
		{"cell-core", e.CellCore},
		{"dynamic", e.Dynamic},
		{"control", e.ControlOverhead},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) || c.v < 0 {
			return fmt.Errorf("energy: %s %s energy component is %v", e.Node, c.name, c.v)
		}
	}
	return nil
}

// DischargeAt assembles the discharge account for one cache at one pricing
// node from the controller's ledger and the run length.
func (p *Pricer) DischargeAt(node tech.Node, led *sram.Ledger, runCycles uint64) (Discharge, error) {
	for i, n := range p.nodes {
		if n != node {
			continue
		}
		cyc := p.cycleNS[i]
		return Discharge{
			Node:         node,
			PulledEnergy: float64(led.PulledCycles()) * cyc,
			IdleEnergy:   p.idleEnergy[i],
			StaticEnergy: float64(led.Subarrays()) * float64(runCycles) * cyc,
		}, nil
	}
	return Discharge{}, fmt.Errorf("energy: node %v not priced by this pricer", node)
}

// CacheEnergy is one cache's total energy account under one policy at one
// node — the denominator of the paper's "fraction of overall cache energy"
// numbers. Compare a policy's account against a static-pull-up baseline
// account (from a separate conventional run) with Savings.
type CacheEnergy struct {
	Node tech.Node
	// Bitline is the policy's bitline discharge (with toggle overheads).
	Bitline float64
	// CellCore is the residual (non-bitline) cell leakage, unchanged by
	// bitline isolation.
	CellCore float64
	// Dynamic is the switching energy of all accesses (including replayed
	// and refetched ones — wasted work costs energy).
	Dynamic float64
	// ControlOverhead is the gated-precharging counter/comparator energy.
	ControlOverhead float64
}

// Total returns the policy's total cache energy.
func (e CacheEnergy) Total() float64 {
	return e.Bitline + e.CellCore + e.Dynamic + e.ControlOverhead
}

// Savings returns the overall cache energy reduction of a policy run versus
// the conventional baseline run — the paper's "overall energy dissipation"
// reductions (42% / 36% at 70nm, Sec. 6.4).
func Savings(policy, conventional CacheEnergy) float64 {
	if conventional.Total() == 0 {
		return 0
	}
	return 1 - policy.Total()/conventional.Total()
}

// DischargeShare returns bitline discharge as a share of the conventional
// cache's total energy — the "cache energy saving opportunity" scaler that
// converts Fig. 3's discharge reductions into the paper's 46%/41% numbers.
func DischargeShare(conventional CacheEnergy) float64 {
	if conventional.Total() == 0 {
		return 0
	}
	return conventional.Bitline / conventional.Total()
}

// CacheEnergyAt assembles the full cache energy account from a run: the
// discharge account plus leakage and dynamic components from the cacti
// model. accesses is the number of cache accesses actually performed
// (replays included); counterBits is nonzero only for gated precharging.
func CacheEnergyAt(m *cacti.Model, d Discharge, runCycles, accesses uint64, counterBits int) CacheEnergy {
	return CacheEnergyWays(m, d, runCycles, accesses, 0, counterBits)
}

// CacheEnergyWays is CacheEnergyAt with way prediction: singleWayReads of
// the accesses read only one way (a way-predicting cache, Sec. 7), costing
// the single-way dynamic energy instead of the all-ways one.
func CacheEnergyWays(m *cacti.Model, d Discharge, runCycles, accesses, singleWayReads uint64, counterBits int) CacheEnergy {
	return Account(m, d, AccountInputs{
		RunCycles:           runCycles,
		Accesses:            accesses,
		SingleWayReads:      singleWayReads,
		CounterBits:         counterBits,
		DrowsyAwakeFraction: 1,
	})
}

// AccountInputs carries the run-level quantities the full account needs.
type AccountInputs struct {
	// RunCycles is the run length.
	RunCycles uint64
	// Accesses is the number of cache accesses performed (replays
	// included).
	Accesses uint64
	// SingleWayReads is the subset of accesses that read one predicted way.
	SingleWayReads uint64
	// CounterBits is the decay-counter width (gated policies only).
	CounterBits int
	// DrowsyAwakeFraction is awake subarray-time over total subarray-time;
	// 1 disables drowsiness. Drowsy time leaks cell-core energy at
	// core.DrowsyLeakageFactor of the awake level.
	DrowsyAwakeFraction float64
}

// drowsyResidualFactor mirrors core.DrowsyLeakageFactor without importing
// core (energy sits below it); the two are pinned equal by a test.
const drowsyResidualFactor = 0.15

// Account assembles the full cache energy account.
func Account(m *cacti.Model, d Discharge, in AccountInputs) CacheEnergy {
	if in.SingleWayReads > in.Accesses {
		in.SingleWayReads = in.Accesses
	}
	awake := in.DrowsyAwakeFraction
	if awake <= 0 || awake > 1 {
		awake = 1
	}
	coreLeak := d.StaticEnergy * cellCoreRatio(m) *
		(awake + (1-awake)*drowsyResidualFactor)
	full := float64(in.Accesses-in.SingleWayReads) * m.DynamicEnergyPerAccess()
	single := float64(in.SingleWayReads) * m.DynamicEnergyOneWay()
	return CacheEnergy{
		Node:            d.Node,
		Bitline:         d.Total(),
		CellCore:        coreLeak,
		Dynamic:         full + single,
		ControlOverhead: m.CounterOverheadPerCycle(in.CounterBits) * float64(in.RunCycles),
	}
}

// cellCoreRatio returns the non-bitline share of leakage relative to the
// bitline discharge for the model's cell type.
func cellCoreRatio(m *cacti.Model) float64 {
	f := m.Config().Cell.BitlineLeakageFraction()
	if f == 0 {
		return 0
	}
	return (1 - f) / f
}
