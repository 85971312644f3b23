// Package nanocache is a from-scratch reproduction of
//
//	Se-Hyun Yang and Babak Falsafi,
//	"Near-Optimal Precharging in High-Performance Nanoscale CMOS Caches",
//	MICRO-36, 2003.
//
// It implements gated precharging — per-subarray decay counters that keep
// recently used cache subarrays statically pulled up and isolate the
// bitlines of cold ones — together with every substrate the paper's
// evaluation rests on: an analytic circuit model of bitline isolation
// transients across 180/130/100/70nm CMOS (replacing SPICE), a CACTI-style
// cache timing/energy model, an 8-wide out-of-order processor simulator with
// load-hit speculation and instruction replay (replacing Wattch), synthetic
// SPEC2000/Olden workload generators, and the competing precharge policies
// (static pull-up, oracle, on-demand, resizable caches).
//
// This package is the public facade: it re-exports the configuration,
// policy, run and experiment types a downstream user needs. The heavy
// machinery lives in internal packages:
//
//	internal/tech        CMOS technology nodes and scaling laws
//	internal/circuit     bitline transients, decoder timing, SRAM cells
//	internal/cacti       cache timing, energy and area model
//	internal/sram        subarray pull-up/idle accounting, locality stats
//	internal/core        the precharge policies (the paper's contribution)
//	internal/cache       L1/L2/memory hierarchy, way prediction, drowsy mode
//	internal/cpu         out-of-order processor timing model
//	internal/workload    the sixteen synthetic benchmarks
//	internal/trace       binary micro-op trace capture and replay
//	internal/energy      per-node energy pricing and accounts
//	internal/power       Wattch-style processor-level budgets
//	internal/plot        SVG rendering of the figures
//	internal/experiments every table and figure of the evaluation
//
// # Quick start
//
//	lab, err := nanocache.NewLab(nanocache.QuickOptions())
//	if err != nil { ... }
//	fig8, err := lab.Figure8(nanocache.DataCache)
//	if err != nil { ... }
//	fig8.Render(os.Stdout)
//
// Or run a single configuration:
//
//	out, err := nanocache.Run(nanocache.RunConfig{
//		Benchmark:    "mcf",
//		Instructions: 200_000,
//		DPolicy:      nanocache.GatedPolicy(100, true),
//		IPolicy:      nanocache.GatedPolicy(100, false),
//	})
//	fmt.Println(out.D.Discharge[nanocache.N70].Reduction())
package nanocache

import (
	"context"

	"nanocache/internal/circuit"
	"nanocache/internal/core"
	"nanocache/internal/cpu"
	"nanocache/internal/energy"
	"nanocache/internal/experiments"
	"nanocache/internal/server"
	"nanocache/internal/tech"
	"nanocache/internal/verify"
	"nanocache/internal/workload"
)

// Node identifies a CMOS technology generation by feature size.
type Node = tech.Node

// The four generations of the paper's Table 1, plus the 50nm projection.
const (
	N180 = tech.N180
	N130 = tech.N130
	N100 = tech.N100
	N70  = tech.N70
	N50  = tech.N50
)

// Nodes returns the paper's studied generations, oldest first.
func Nodes() []Node { return append([]Node(nil), tech.Nodes...) }

// ProjectedNodes returns Nodes extended with the 50nm projection.
func ProjectedNodes() []Node { return tech.ProjectedNodes() }

// TechParams returns the circuit parameters of a node (Table 1 plus the
// scaling laws).
func TechParams(n Node) tech.Params { return tech.ParamsFor(n) }

// IsolationTransient is the normalized bitline power curve after isolation
// (the paper's Fig. 2 model).
type IsolationTransient = circuit.IsolationTransient

// TransientFor returns the isolation transient of a node at the reference
// junction temperature (85°C).
func TransientFor(n Node) IsolationTransient { return circuit.TransientFor(n) }

// TransientForTemp returns the transient at a junction temperature in °C;
// hotter silicon leaks more, making isolation strictly more attractive.
func TransientForTemp(n Node, celsius float64) IsolationTransient {
	return circuit.TransientForTemp(n, celsius)
}

// PolicyKind enumerates the precharge policies.
type PolicyKind = core.Kind

// Policy kinds.
const (
	Static    = core.KindStatic
	Oracle    = core.KindOracle
	OnDemand  = core.KindOnDemand
	Gated     = core.KindGated
	Resizable = core.KindResizable
)

// PolicySpec selects and parameterizes a precharge policy for one cache.
type PolicySpec = experiments.PolicySpec

// StaticPolicy returns the conventional blind-precharging baseline.
func StaticPolicy() PolicySpec { return experiments.Static() }

// OraclePolicy returns the ideal zero-delay policy (Sec. 4 of the paper).
func OraclePolicy() PolicySpec { return experiments.OraclePolicy() }

// OnDemandPolicy returns partial-address-decode precharging (Sec. 5).
func OnDemandPolicy() PolicySpec { return experiments.OnDemandPolicy() }

// GatedPolicy returns gated precharging (Sec. 6) at a decay threshold;
// predecode enables base-register subarray hints (data caches).
func GatedPolicy(threshold uint64, predecode bool) PolicySpec {
	return experiments.GatedPolicy(threshold, predecode)
}

// ResizablePolicy returns the interval-based resizable-cache comparison
// policy (Fig. 9).
func ResizablePolicy(tolerance float64, maxSteps int) PolicySpec {
	return experiments.ResizablePolicy(tolerance, maxSteps)
}

// ResizableWaysPolicy is ResizablePolicy with a ladder that powers down
// associative ways before sets, matching the paper's description of the
// prior art ("vary both the number of cache sets and set associative ways").
func ResizableWaysPolicy(tolerance float64, maxSteps int) PolicySpec {
	p := experiments.ResizablePolicy(tolerance, maxSteps)
	p.SelectiveWays = true
	return p
}

// AdaptiveGatedPolicy returns gated precharging with online threshold
// selection — this reproduction's implementation of the paper's deferred
// future work. initialThreshold of 0 uses the default (100).
func AdaptiveGatedPolicy(initialThreshold uint64, predecode bool) PolicySpec {
	return experiments.AdaptiveGatedPolicy(initialThreshold, predecode)
}

// ReplayMode selects the load-hit misspeculation recovery scheme.
type ReplayMode = cpu.ReplayMode

// Replay modes (Sec. 6.3 of the paper).
const (
	DependentOnly = cpu.DependentOnly
	SquashAll     = cpu.SquashAll
)

// RunConfig describes one architectural simulation.
type RunConfig = experiments.RunConfig

// Outcome is the priced result of one run.
type Outcome = experiments.Outcome

// CacheOutcome is the per-cache portion of an outcome.
type CacheOutcome = experiments.CacheOutcome

// Discharge is a bitline-discharge account at one node.
type Discharge = energy.Discharge

// CacheEnergy is a full cache-energy account at one node.
type CacheEnergy = energy.CacheEnergy

// Run executes one configuration.
func Run(cfg RunConfig) (Outcome, error) { return experiments.Run(cfg) }

// RunCtx executes one configuration under a context: cancelling ctx aborts
// the architectural simulation within a few thousand simulated cycles.
func RunCtx(ctx context.Context, cfg RunConfig) (Outcome, error) {
	return experiments.RunCtx(ctx, cfg)
}

// RunAll executes independent configurations concurrently on up to
// parallelism workers (<= 0 means one per CPU) and returns the outcomes in
// input order. The first failing run cancels the remaining queue.
func RunAll(ctx context.Context, parallelism int, cfgs []RunConfig) ([]Outcome, error) {
	return experiments.RunAll(ctx, parallelism, cfgs)
}

// Options parameterizes a full evaluation. Options.Parallelism bounds the
// lab's worker pool (0 = one worker per CPU, 1 = fully serial); results are
// identical at every setting.
type Options = experiments.Options

// DefaultOptions returns the full-evaluation options (a few minutes of CPU
// time, fanned across cores by default); QuickOptions a reduced smoke
// configuration.
func DefaultOptions() Options { return experiments.DefaultOptions() }

// QuickOptions returns reduced options for quick runs and tests.
func QuickOptions() Options { return experiments.QuickOptions() }

// Lab memoizes every architectural run (keyed by the run config's digest)
// and every threshold sweep across experiments. A Lab is safe for
// concurrent use; identical in-flight requests are deduplicated
// (single-flight) and the figure generators fan independent runs across a
// worker pool, merging in deterministic order.
type Lab = experiments.Lab

// NewLab builds a lab over validated options.
func NewLab(opts Options) (*Lab, error) { return experiments.NewLab(opts) }

// CacheSide selects the data or instruction cache in experiment queries.
type CacheSide = experiments.CacheSide

// Cache sides.
const (
	DataCache        = experiments.DataCache
	InstructionCache = experiments.InstructionCache
)

// Figure2 evaluates the isolation transients (no simulation needed).
func Figure2() experiments.Fig2Result { return experiments.Figure2() }

// Table3 evaluates the decoder/pull-up timing model against the paper.
func Table3() (experiments.Table3Result, error) { return experiments.Table3() }

// Overhead evaluates the gated-precharging hardware cost bound (Sec. 6.2).
func Overhead() experiments.OverheadResult { return experiments.Overhead() }

// DrowsyLeakageFactor is the residual cell-core leakage of a drowsy
// subarray (Kim et al. comparison).
const DrowsyLeakageFactor = core.DrowsyLeakageFactor

// Benchmarks returns the sixteen benchmark names in the paper's order.
func Benchmarks() []string { return workload.Names() }

// WorkloadSpec parameterizes a synthetic workload; set RunConfig.Workload to
// simulate a custom one.
type WorkloadSpec = workload.Spec

// AccessPattern selects a workload's cold-region traversal.
type AccessPattern = workload.Pattern

// Access patterns.
const (
	Strided        = workload.Strided
	PointerChase   = workload.PointerChase
	RandomInRegion = workload.RandomInRegion
)

// BenchmarkSpec returns the synthetic workload spec of one benchmark; copy
// and modify it as a starting point for custom workloads.
func BenchmarkSpec(name string) (WorkloadSpec, bool) { return workload.ByName(name) }

// VerifyRule is one named invariant of the verification engine — a
// machine-checked relationship (conservation, dominance, monotonicity,
// determinism) that any result set must obey.
type VerifyRule = verify.Rule

// VerifyViolation is one broken invariant, carrying the violated rule's name.
type VerifyViolation = verify.Violation

// VerifyReport is the outcome of checking a subject against every
// registered rule; Render writes the per-rule verdict table.
type VerifyReport = verify.Report

// VerifySubject carries whatever slice of an evaluation is available for
// invariant checking; rules skip absent sections.
type VerifySubject = verify.Subject

// VerifyRules returns the registered invariants sorted by name.
func VerifyRules() []VerifyRule { return verify.Rules() }

// VerifyCheck runs every registered invariant against a subject.
func VerifyCheck(s *VerifySubject) VerifyReport { return verify.Check(s) }

// VerifyOutcome checks the invariants of a single raw run outcome (the ones
// that need figure sets or sweeps skip themselves).
func VerifyOutcome(label string, o Outcome) VerifyReport {
	s := &VerifySubject{}
	s.AddOutcome(label, o)
	return verify.Check(s)
}

// Verify collects the full checkable subject from a lab — the figure set,
// the raw sweeps and baselines behind it, and a determinism probe — and
// runs every registered invariant. Collection routes through the lab's
// memoization, so verifying after generating figures costs little extra.
func Verify(lab *Lab) (VerifyReport, error) {
	s, err := verify.Collect(lab, verify.CollectConfig{})
	if err != nil {
		return VerifyReport{}, err
	}
	return verify.Check(s), nil
}

// ServerConfig parameterizes the result-serving daemon: lab options, LRU
// cache capacity, computation concurrency and per-request deadline.
type ServerConfig = server.Config

// Server is the nanocached serving layer: an http.Handler over the
// experiment engine with an LRU result cache, single-flight collapse of
// concurrent identical requests, bounded computation and graceful drain.
// See cmd/nanocached for the daemon around it.
type Server = server.Server

// ServerMetrics is a snapshot of a Server's request/cache counters.
type ServerMetrics = server.MetricsSnapshot

// NewServer validates the configuration and builds a serving-ready daemon;
// expose it with Handler and stop it with Close.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }
