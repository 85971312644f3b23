package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"nanocache/internal/core"
	"nanocache/internal/isa"
	"nanocache/internal/tech"
	"nanocache/internal/workload"
)

// Options parameterizes the whole evaluation. The defaults regenerate the
// paper's figures in a few minutes on one core; tests shrink Instructions
// and the benchmark list.
type Options struct {
	// Instructions per architectural run.
	Instructions uint64
	// Seed drives every workload generator.
	Seed int64
	// SubarrayBytes is the base subarray size (1KB in the paper).
	SubarrayBytes int
	// Thresholds is the ladder searched for per-benchmark optimum gated
	// thresholds (the paper finds optima between 10 and 1000, mostly near
	// 100).
	Thresholds []uint64
	// ConstantThreshold is the across-the-board reference (100 in the
	// paper).
	ConstantThreshold uint64
	// PerfBudget is the allowed slowdown (1% in the paper).
	PerfBudget float64
	// Benchmarks to evaluate (all sixteen by default).
	Benchmarks []string
	// ResizeInterval is the resizable epoch in instructions. The paper
	// uses ~1M instructions on full-length runs; it is scaled to the run
	// length here (documented in DESIGN.md §4).
	ResizeInterval uint64
	// ResizeTolerances is the ladder searched for the resizable cache's
	// miss-ratio tolerance under the same performance budget.
	ResizeTolerances []float64
	// Parallelism bounds the number of concurrent architectural runs the
	// lab's worker pool fans out (threshold sweeps and the per-benchmark
	// loops of the figure generators). 0 means runtime.GOMAXPROCS(0);
	// 1 recovers the fully serial engine. Every figure merges results in
	// deterministic key order, so the output is identical at any setting.
	Parallelism int
}

// DefaultOptions returns the full-evaluation options.
func DefaultOptions() Options {
	return Options{
		Instructions:      150_000,
		Seed:              1,
		SubarrayBytes:     1024,
		Thresholds:        []uint64{8, 16, 32, 64, 100, 128, 256, 512, 1000},
		ConstantThreshold: 100,
		PerfBudget:        0.01,
		ResizeInterval:    15_000,
		ResizeTolerances:  []float64{0.002, 0.005, 0.01, 0.02},
	}
}

// QuickOptions returns a reduced configuration for tests and smoke runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Instructions = 40_000
	o.Thresholds = []uint64{8, 32, 100, 256}
	o.ResizeTolerances = []float64{0.005, 0.02}
	o.ResizeInterval = 8_000
	return o
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return allBenchmarks()
}

// BenchmarkList resolves the effective benchmark set (the configured subset,
// or all sixteen) in figure order. The serving layer's job planner uses it
// to decompose a figure sweep into per-benchmark checkpoint points.
func (o Options) BenchmarkList() []string {
	return append([]string(nil), o.benchmarks()...)
}

// parallelism resolves the worker-pool width (0 = one worker per CPU).
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	switch {
	case o.Instructions < 1000:
		return fmt.Errorf("experiments: need at least 1000 instructions, got %d", o.Instructions)
	case len(o.Thresholds) == 0:
		return fmt.Errorf("experiments: empty threshold ladder")
	case o.ConstantThreshold < 1 || o.ConstantThreshold > core.MaxThreshold:
		return fmt.Errorf("experiments: constant threshold %d out of range", o.ConstantThreshold)
	case o.PerfBudget <= 0:
		return fmt.Errorf("experiments: performance budget must be positive")
	case o.Parallelism < 0:
		return fmt.Errorf("experiments: negative parallelism %d", o.Parallelism)
	}
	for _, t := range o.Thresholds {
		if t < 1 || t > core.MaxThreshold {
			return fmt.Errorf("experiments: threshold %d out of range", t)
		}
	}
	for _, b := range o.Benchmarks {
		if _, ok := workload.ByName(b); !ok {
			return fmt.Errorf("experiments: unknown benchmark %q (known: %s)",
				b, strings.Join(workload.Names(), ", "))
		}
	}
	return nil
}

// CacheSide selects the data or instruction cache in sweep queries.
type CacheSide int

// Cache sides.
const (
	DataCache CacheSide = iota
	InstructionCache
)

// String names the side.
func (s CacheSide) String() string {
	if s == DataCache {
		return "d-cache"
	}
	return "i-cache"
}

// Lab memoizes the architectural runs shared by several figures: one run
// memo keyed by the run config's canonical identity (RunConfig.Digest, the
// daemon's "same simulation" key), plus the gated threshold sweeps and the
// recorded traces they replay.
//
// A Lab is safe for concurrent use: the memo tables are mutex-guarded and
// every entry is a single-flight cell, so two figures requesting the same
// run share one in-flight computation instead of duplicating it. Memoized
// outcomes are shared read-only. The figure generators fan their
// independent runs across an internal worker pool bounded by
// Options.Parallelism and merge results in deterministic key order
// (benchmark, then threshold — never completion order), so parallel output
// is identical to serial output.
type Lab struct {
	opts Options
	// thresholds is the ascending ladder, sorted once at construction so
	// the sweeps do not re-sort per call.
	thresholds []uint64

	// mu guards the memo tables (not the computations themselves).
	mu     sync.Mutex
	runs   map[string]*inflight[Outcome]
	sweeps map[sweepKey]*inflight[[]SweepPoint]
	traces map[traceKey]*inflight[*isa.Recorded]

	// progressMu serializes progress emission; see SetProgress.
	progressMu sync.Mutex
	progress   func(string)
}

type sweepKey struct {
	bench    string
	side     CacheSide
	subarray int
}

// traceKey identifies one shared replayable trace: the dynamic micro-op
// stream is fully determined by the benchmark, the optional SMT partner, the
// seed and the instruction budget — and by nothing policy- or machine-
// dependent, which is what makes sweep-wide sharing sound.
type traceKey struct {
	bench  string
	second string
	seed   int64
	n      uint64
}

// inflight is a single-flight memo cell: the first requester computes the
// value, concurrent requesters block on done and share the result.
type inflight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// single returns the memoized value for key, computing it at most once even
// under concurrent callers. Failures are forgotten so a later request can
// retry; successes stay memoized for the lab's lifetime.
func single[K comparable, T any](l *Lab, m map[K]*inflight[T], key K, compute func() (T, error)) (T, error) {
	l.mu.Lock()
	if c, ok := m[key]; ok {
		l.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &inflight[T]{done: make(chan struct{})}
	m[key] = c
	l.mu.Unlock()
	c.val, c.err = compute()
	if c.err != nil {
		l.mu.Lock()
		delete(m, key)
		l.mu.Unlock()
	}
	close(c.done)
	return c.val, c.err
}

// SweepPoint is one gated run in a threshold sweep.
type SweepPoint struct {
	Threshold uint64
	Outcome   Outcome
	Slowdown  float64
}

// NewLab builds a lab over validated options.
func NewLab(opts Options) (*Lab, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Lab{
		opts:       opts,
		thresholds: sortedThresholds(opts.Thresholds),
		runs:       make(map[string]*inflight[Outcome]),
		sweeps:     make(map[sweepKey]*inflight[[]SweepPoint]),
		traces:     make(map[traceKey]*inflight[*isa.Recorded]),
	}, nil
}

// traceFor returns (memoized, single-flight) the shared replayable trace for
// cfg's stream identity. First use materializes the trace by running the
// generator once; every subsequent sweep point, baseline and sensitivity run
// replays it. At full-evaluation scale one trace is a few MB (150k ops ×
// ~48B), bounded by the benchmark set plus the SMT pairs — the figures share
// a handful of streams across hundreds of runs.
func (l *Lab) traceFor(cfg RunConfig) (*isa.Recorded, error) {
	key := traceKey{bench: cfg.Benchmark, second: cfg.SecondBenchmark,
		seed: cfg.Seed, n: cfg.Instructions}
	return single(l, l.traces, key, func() (*isa.Recorded, error) {
		return RecordTrace(cfg)
	})
}

// run executes one configuration through the lab's run memo and shared-
// trace replay. Every config the lab builds from its own options at its own
// seed is keyed by RunConfig.Digest and simulated at most once per lab: the
// first requester records (or reuses) the per-(benchmark, seed, interleave)
// trace and replays it, concurrent requesters wait on the same cell, and
// later ones get the memoized outcome. Results are byte-identical to
// Run(cfg) with fresh generation (pinned by TestFreshVsReplayedTrace
// equivalence and the goldens).
//
// Configs with a caller-supplied trace, a custom workload, a tracer, or
// another seed or instruction budget pass straight to Run and stay out of
// the memo: a memoized outcome keeps its Config.Trace alive, so memoizing
// an off-seed run would pin that run's trace for the lab's lifetime.
func (l *Lab) run(cfg RunConfig) (Outcome, error) {
	return l.runThen(cfg, nil)
}

// runThen is run with a hook that only the caller which actually simulates
// cfg invokes (never a memo hit), so a progress line marks one simulation.
func (l *Lab) runThen(cfg RunConfig, computed func(Outcome)) (Outcome, error) {
	if cfg.Trace != nil || cfg.Workload != nil || cfg.Tracer != nil ||
		cfg.Seed != l.opts.Seed || cfg.Instructions != l.opts.Instructions {
		return Run(cfg)
	}
	key, err := cfg.Digest()
	if err != nil {
		return Outcome{}, err
	}
	return single(l, l.runs, key, func() (Outcome, error) {
		tr, err := l.traceFor(cfg)
		if err != nil {
			return Outcome{}, err
		}
		cfg.Trace = tr
		o, err := Run(cfg)
		if err == nil && computed != nil {
			computed(o)
		}
		return o, err
	})
}

// publish enters an outcome the lab computed outside run (a forked sweep
// point) into the run memo under its config's digest, unless that config
// is already memoized or in flight.
func (l *Lab) publish(o Outcome) error {
	key, err := o.Config.Digest()
	if err != nil {
		return err
	}
	c := &inflight[Outcome]{done: make(chan struct{}), val: o}
	close(c.done)
	l.mu.Lock()
	if _, ok := l.runs[key]; !ok {
		l.runs[key] = c
	}
	l.mu.Unlock()
	return nil
}

// Options returns the lab's options.
func (l *Lab) Options() Options { return l.opts }

// SetProgress installs a progress callback (one line per completed run).
//
// Concurrency contract: under Parallelism > 1 the lab invokes the callback
// from worker goroutines, but never concurrently — every call is serialized
// behind an internal mutex, so the callback itself needs no locking. Lines
// arrive in completion order, which is not deterministic across parallel
// runs. The callback must return promptly (it holds the emitter lock) and
// must not call back into the Lab.
func (l *Lab) SetProgress(fn func(string)) {
	l.progressMu.Lock()
	defer l.progressMu.Unlock()
	l.progress = fn
}

// note routes one progress line through the mutex-protected emitter.
func (l *Lab) note(format string, args ...any) {
	l.progressMu.Lock()
	defer l.progressMu.Unlock()
	if l.progress != nil {
		l.progress(fmt.Sprintf(format, args...))
	}
}

// runConfig assembles the common run parameters.
func (l *Lab) runConfig(bench string, d, i PolicySpec) RunConfig {
	return RunConfig{
		Benchmark:      bench,
		Seed:           l.opts.Seed,
		Instructions:   l.opts.Instructions,
		SubarrayBytes:  l.opts.SubarrayBytes,
		DPolicy:        d,
		IPolicy:        i,
		ResizeInterval: l.opts.ResizeInterval,
	}
}

// Baseline returns (memoized) the conventional static-pull-up run.
func (l *Lab) Baseline(bench string) (Outcome, error) {
	return l.baselineAt(bench, l.opts.SubarrayBytes)
}

// GatedSweep returns (memoized) the gated threshold sweep for one cache
// side of one benchmark at the given subarray size (0 = the base size).
// The swept cache is gated (with predecoding on the data side, per the
// paper); the other cache stays conventional. Points always come back in
// ascending-threshold order regardless of completion order.
//
// Eligible sweeps run incrementally (DESIGN.md §12): the ladder is split
// into contiguous ascending chunks, one per worker, and each chunk shares a
// checkpoint-and-fork prefix machine via runGatedBatch — adjacent thresholds
// share the longest common prefixes, so each worker forks from its own
// hottest snapshot. Configurations the fork engine cannot express (custom
// machines, duplicate thresholds) fan out per point as before; either path
// produces bit-identical outcomes (TestSnapshotForkMatchesFresh). Either
// way every point lands in the run memo, so a figure that later runs one
// point's config on its own (the constant-threshold run) reuses it.
func (l *Lab) GatedSweep(bench string, side CacheSide, subarrayBytes int) ([]SweepPoint, error) {
	if subarrayBytes == 0 {
		subarrayBytes = l.opts.SubarrayBytes
	}
	key := sweepKey{bench, side, subarrayBytes}
	return single(l, l.sweeps, key, func() ([]SweepPoint, error) {
		base, err := l.baselineAt(bench, subarrayBytes)
		if err != nil {
			return nil, err
		}
		sweptCfg := func(thr uint64) RunConfig {
			d, i := Static(), Static()
			if side == DataCache {
				d = GatedPolicy(thr, true)
			} else {
				i = GatedPolicy(thr, false)
			}
			cfg := l.runConfig(bench, d, i)
			cfg.SubarrayBytes = subarrayBytes
			return cfg
		}
		pts := make([]SweepPoint, len(l.thresholds))
		record := func(j int, o Outcome) {
			pts[j] = SweepPoint{Threshold: l.thresholds[j], Outcome: o, Slowdown: o.Slowdown(base)}
			l.note("sweep %s %s sub=%dB thr=%d: slowdown %.4f", bench, side, subarrayBytes,
				l.thresholds[j], o.Slowdown(base))
		}

		probe := sweptCfg(l.thresholds[0])
		if tr, err := l.traceFor(probe); err == nil {
			probe.Trace = tr
		}
		if forkEligible(probe, side) && strictlyAscending(l.thresholds) {
			chunks := chunkRanges(len(l.thresholds), l.opts.parallelism())
			err = l.forEach(len(chunks), func(ci int) error {
				lo, hi := chunks[ci][0], chunks[ci][1]
				cfg := sweptCfg(l.thresholds[lo])
				cfg.Trace = probe.Trace
				outs, err := runGatedBatch(cfg, side, l.thresholds[lo:hi])
				if err != nil {
					return err
				}
				for k, o := range outs {
					if err := l.publish(o); err != nil {
						return err
					}
					record(lo+k, o)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			return pts, nil
		}

		err = l.forEach(len(l.thresholds), func(j int) error {
			o, err := l.run(sweptCfg(l.thresholds[j]))
			if err != nil {
				return err
			}
			record(j, o)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return pts, nil
	})
}

// baselineAt returns (memoized) a baseline run at an arbitrary subarray
// size. The Figure 10 size sweep shares one baseline per size between the
// two cache sides.
func (l *Lab) baselineAt(bench string, subarrayBytes int) (Outcome, error) {
	cfg := l.runConfig(bench, Static(), Static())
	cfg.SubarrayBytes = subarrayBytes
	return l.runThen(cfg, func(o Outcome) {
		l.note("baseline %s sub=%dB: IPC %.2f dMiss %.3f", bench, subarrayBytes,
			o.CPU.IPC, o.D.MissRatio)
	})
}

// side returns the swept cache's outcome from a sweep point.
func (p SweepPoint) side(s CacheSide) CacheOutcome {
	if s == DataCache {
		return p.Outcome.D
	}
	return p.Outcome.I
}

// BestFeasible picks, from a sweep, the point minimizing the relative
// discharge at the given node among points within the performance budget —
// the paper's "statically-found per-benchmark optimum threshold with a 1%
// performance degradation". If nothing is feasible it returns the point
// with the smallest slowdown (the least aggressive threshold).
func BestFeasible(pts []SweepPoint, side CacheSide, node tech.Node, budget float64) SweepPoint {
	if len(pts) == 0 {
		return SweepPoint{}
	}
	best := -1
	for i, p := range pts {
		if p.Slowdown > budget {
			continue
		}
		if best < 0 || p.side(side).Discharge[node].Relative() <
			pts[best].side(side).Discharge[node].Relative() {
			best = i
		}
	}
	if best >= 0 {
		return pts[best]
	}
	// Nothing feasible: fall back to the gentlest (largest) threshold.
	fallback := 0
	for i := range pts {
		if pts[i].Threshold > pts[fallback].Threshold {
			fallback = i
		}
	}
	return pts[fallback]
}

func sortedThresholds(ts []uint64) []uint64 {
	out := append([]uint64(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func allBenchmarks() []string { return workload.Names() }
