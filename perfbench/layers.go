package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nanocache/internal/cache"
	"nanocache/internal/cacti"
	"nanocache/internal/circuit"
	"nanocache/internal/cluster"
	"nanocache/internal/core"
	"nanocache/internal/cpu"
	"nanocache/internal/energy"
	"nanocache/internal/experiments"
	"nanocache/internal/isa"
	"nanocache/internal/jobs"
	"nanocache/internal/server"
	"nanocache/internal/sram"
	"nanocache/internal/stats"
	"nanocache/internal/store"
	"nanocache/internal/tech"
	"nanocache/internal/verify"
)

// layerInputs carries what the traced run of a workload hands to the layer
// measurements besides its options.
type layerInputs struct {
	// serve is serve-mixed's live daemon and its counters before the loop.
	serve  *serveRun
	before server.MetricsSnapshot
	// fleet is the fleet-jobs round's counters.
	fleet *fleetRound
	// payloads are the workload's own result payloads (store and envelope
	// measurements use their sizes).
	payloads [][]byte
	// configs are a sample of the workload's own run configs, rebuilt layer
	// by layer.
	configs []experiments.RunConfig
}

// sampleConfigs picks run configs of a lab's own kinds: the baseline and the
// gated data-cache point at the constant threshold, for two benchmarks.
func sampleConfigs(opts experiments.Options) []experiments.RunConfig {
	var out []experiments.RunConfig
	benches := opts.BenchmarkList()
	for _, b := range benches[:min(2, len(benches))] {
		base := experiments.RunConfig{
			Benchmark: b, Seed: opts.Seed, Instructions: opts.Instructions,
			SubarrayBytes: opts.SubarrayBytes,
			DPolicy:       experiments.Static(), IPolicy: experiments.Static(),
		}
		gated := base
		gated.DPolicy = experiments.GatedPolicy(opts.ConstantThreshold, true)
		out = append(out, base, gated)
	}
	return out
}

// measureLayers runs the per-layer measurements of the layers the workload
// runs and records them; the others print as 0 (README.md lists where each
// applies).
func measureLayers(e *env, rep *report, opts experiments.Options, in *layerInputs) error {
	if len(in.configs) == 0 {
		in.configs = sampleConfigs(opts)
	}
	if err := measureSimulator(e, rep, opts, in.configs); err != nil {
		return err
	}
	if err := measureSweep(e, rep, opts); err != nil {
		return err
	}
	if in.serve == nil && in.fleet == nil {
		return nil
	}
	if sr := in.serve; sr != nil {
		var figs []servedFigure
		for _, f := range sr.cfg.hitSet {
			v, err := buildFigure(sr.d.srv.Lab(), f)
			if err != nil {
				return err
			}
			figs = append(figs, servedFigure{path: f.path(), body: sr.primed[f.path()], value: v, check: true})
		}
		if err := measureServer(e, rep, sr.d.srv, sr.c, in.before, figs); err != nil {
			return err
		}
	}
	if err := measureStore(e, rep, in.payloads); err != nil {
		return err
	}
	if err := measureJobs(e, rep); err != nil {
		return err
	}
	measureEnvelope(rep, in.payloads)
	measureFleet(rep, in.fleet)
	return nil
}

// timeN runs fn n times and returns the mean duration per call.
func timeN(n int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rebuilt is one run assembled layer by layer from the exported
// constructors, outside experiments.Run.
type rebuilt struct {
	res          cpu.Result
	d, i         rebuiltCache
	runTime      time.Duration
	allocsPerRun float64
}

type rebuiltCache struct {
	bits     int
	model    *cacti.Model
	pricer   *energy.Pricer
	l1       *cache.L1
	pulled   uint64
	idle     uint64
	discharg map[tech.Node]energy.Discharge
	energy   map[tech.Node]energy.CacheEnergy
}

// controllerFor builds the static or gated controller of a sample config.
func controllerFor(p experiments.PolicySpec, m *cacti.Model, obs sram.IdleObserver) (core.Controller, int, error) {
	n := m.Config().Geometry.NumSubarrays()
	switch p.Kind {
	case core.KindStatic:
		return core.NewStaticPullUp(n, obs), 0, nil
	case core.KindGated:
		return core.NewGated(n, p.Threshold, m.PrechargeMissPenaltyCycles(), obs), core.CounterBits, nil
	}
	return nil, 0, fmt.Errorf("layer rebuild covers static and gated policies, not %v", p.Kind)
}

// rebuildCache builds one L1 with its model, pricer and controller.
func rebuildCache(e *env, run string, parent *spanHandle, cc cacti.Config, sub int, p experiments.PolicySpec, l2 *cache.L2) (rebuiltCache, error) {
	cc.Geometry.SubarrayBytes = sub
	sp := e.tr.start("cacti.New", run, parent)
	m, err := cacti.New(cc)
	sp.end()
	if err != nil {
		return rebuiltCache{}, err
	}
	sp = e.tr.start("energy.NewPricer", run, parent)
	pr := energy.NewPricer(tech.ProjectedNodes()...)
	sp.end()
	sp = e.tr.start("core.controller", run, parent)
	ctrl, bits, err := controllerFor(p, m, pr.Observer())
	sp.end()
	if err != nil {
		return rebuiltCache{}, err
	}
	sp = e.tr.start("cache.NewL1", run, parent)
	l1, err := cache.NewL1(m, ctrl, sram.NewLocality(cc.Geometry.NumSubarrays(), nil), l2)
	sp.end()
	return rebuiltCache{bits: bits, model: m, pricer: pr, l1: l1}, err
}

// price assembles one cache's discharge and energy at every projected node,
// as the outcome assembly does.
func (c *rebuiltCache) price(cycles uint64) error {
	led := c.l1.Controller().Ledger()
	acc, _, _ := c.l1.Stats()
	c.pulled, c.idle = led.PulledCycles(), led.IdleCycles()
	c.discharg = map[tech.Node]energy.Discharge{}
	c.energy = map[tech.Node]energy.CacheEnergy{}
	for _, n := range tech.ProjectedNodes() {
		d, err := c.pricer.DischargeAt(n, led, cycles)
		if err != nil {
			return err
		}
		c.discharg[n] = d
		c.energy[n] = energy.Account(c.model, d, energy.AccountInputs{
			RunCycles: cycles, Accesses: acc, CounterBits: c.bits, DrowsyAwakeFraction: 1,
		})
	}
	return nil
}

// rebuildRun assembles cfg's run from the layers and replays tr through it.
func rebuildRun(e *env, run string, parent *spanHandle, cfg experiments.RunConfig, tr *isa.Recorded, machine *cpu.Machine) (*rebuilt, error) {
	l2 := cache.DefaultL2()
	d, err := rebuildCache(e, run, parent, cacti.DefaultDataConfig(tech.N70), cfg.SubarrayBytes, cfg.DPolicy, l2)
	if err != nil {
		return nil, err
	}
	i, err := rebuildCache(e, run, parent, cacti.DefaultInstructionConfig(tech.N70), cfg.SubarrayBytes, cfg.IPolicy, l2)
	if err != nil {
		return nil, err
	}
	mcfg := cpu.DefaultConfig()
	mcfg.MaxInstructions = cfg.Instructions
	mcfg.Predecode = cfg.DPolicy.Predecode && cfg.DPolicy.Kind == core.KindGated
	var cur isa.Cursor
	cur.Attach(tr)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := e.tr.start("cpu.Machine.Run", run, parent)
	start := time.Now()
	if err := machine.Reset(mcfg, i.l1, d.l1, &cur); err != nil {
		return nil, err
	}
	res, err := machine.Run()
	took := time.Since(start)
	sp.end()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	sp = e.tr.start("energy.price", run, parent)
	if err := d.price(res.Cycles); err != nil {
		return nil, err
	}
	if err := i.price(res.Cycles); err != nil {
		return nil, err
	}
	sp.end()
	return &rebuilt{res: res, d: d, i: i, runTime: took,
		allocsPerRun: float64(after.Mallocs - before.Mallocs)}, nil
}

// matchOutcome compares a rebuilt run with experiments.Run's outcome of the
// same config: cycles, committed instructions and ledger totals.
func matchOutcome(label string, rb *rebuilt, o experiments.Outcome) error {
	if rb.res.Cycles != o.CPU.Cycles || rb.res.Committed != o.CPU.Committed {
		return fmt.Errorf("%s: rebuilt run %d cycles / %d committed, experiments.Run %d / %d",
			label, rb.res.Cycles, rb.res.Committed, o.CPU.Cycles, o.CPU.Committed)
	}
	for _, c := range []struct {
		name string
		rb   rebuiltCache
		co   experiments.CacheOutcome
	}{{"d-cache", rb.d, o.D}, {"i-cache", rb.i, o.I}} {
		if c.rb.pulled != c.co.PulledCycles || c.rb.idle != c.co.IdleCycles {
			return fmt.Errorf("%s %s: rebuilt ledger pulled %d idle %d, experiments.Run %d / %d",
				label, c.name, c.rb.pulled, c.rb.idle, c.co.PulledCycles, c.co.IdleCycles)
		}
		for n, d := range c.co.Discharge {
			if c.rb.discharg[n].Total() != d.Total() || c.rb.energy[n].Total() != c.co.Energy[n].Total() {
				return fmt.Errorf("%s %s at %v: rebuilt discharge %g energy %g, experiments.Run %g / %g",
					label, c.name, n, c.rb.discharg[n].Total(), c.rb.energy[n].Total(), d.Total(), c.co.Energy[n].Total())
			}
		}
	}
	return nil
}

// measureSimulator rebuilds the sample configs layer by layer, checks each
// against experiments.Run, and times the simulator layers on them.
func measureSimulator(e *env, rep *report, opts experiments.Options, configs []experiments.RunConfig) error {
	var recordNS, replayNS, staticNS, gatedNS, allocs, priceUS, l1NS []float64
	var machine cpu.Machine
	for k, cfg := range configs {
		run := fmt.Sprintf("rebuild-%d", k)
		root := e.tr.start("layers.rebuild", run, nil)
		sp := e.tr.start("experiments.RecordTrace", run, root)
		start := time.Now()
		tr, err := experiments.RecordTrace(cfg)
		took := time.Since(start)
		sp.end()
		if err != nil {
			return err
		}
		recordNS = append(recordNS, float64(took.Nanoseconds())/float64(cfg.Instructions))

		sp = e.tr.start("isa.Cursor", run, root)
		start = time.Now()
		var cur isa.Cursor
		cur.Attach(tr)
		var uop isa.MicroOp
		nops := 0
		for cur.Next(&uop) {
			nops++
		}
		replayNS = append(replayNS, float64(time.Since(start).Nanoseconds())/float64(nops))
		sp.end()

		// The first rebuild sizes the machine's pools; the second is timed
		// and counted.
		if _, err := rebuildRun(e, run, root, cfg, tr, &machine); err != nil {
			return err
		}
		rb, err := rebuildRun(e, run, root, cfg, tr, &machine)
		if err != nil {
			return err
		}
		sp = e.tr.start("experiments.Run", run, root)
		o, err := experiments.Run(cfg)
		sp.end()
		if err != nil {
			return err
		}
		root.end()
		if err := matchOutcome(fmt.Sprintf("%s %v/%v", cfg.Benchmark, cfg.DPolicy.Kind, cfg.IPolicy.Kind), rb, o); err != nil {
			return fmt.Errorf("layer-by-layer rebuild differs from experiments.Run: %w", err)
		}
		perInstr := float64(rb.runTime.Nanoseconds()) / float64(rb.res.Committed)
		if cfg.DPolicy.Kind == core.KindGated {
			gatedNS = append(gatedNS, perInstr)
		} else {
			staticNS = append(staticNS, perInstr)
		}
		allocs = append(allocs, rb.allocsPerRun)
		priceUS = append(priceUS, us(timeN(20, func() {
			rb.d.price(rb.res.Cycles)
			rb.i.price(rb.res.Cycles)
		})))

		// The L1 with a gated controller, replaying the data-address stream
		// outside the cpu.
		l1, err := rebuildCache(e, run, nil, cacti.DefaultDataConfig(tech.N70), cfg.SubarrayBytes,
			experiments.GatedPolicy(opts.ConstantThreshold, false), cache.DefaultL2())
		if err != nil {
			return err
		}
		var addrs []isa.MicroOp
		for j := 0; j < tr.Len(); j++ {
			if u := tr.At(j); u.Class.IsMem() {
				addrs = append(addrs, u)
			}
		}
		start = time.Now()
		for j, u := range addrs {
			l1.l1.Access(u.Addr, uint64(2*j), u.Class == isa.Store)
		}
		l1NS = append(l1NS, float64(time.Since(start).Nanoseconds())/float64(len(addrs)))
	}
	rep.layer("workload.record_ns_per_instr", median(recordNS))
	rep.layer("isa.replay_ns_per_op", median(replayNS))
	rep.layer("cpu.ns_per_instr", median(staticNS))
	rep.layer("cpu.ns_per_instr_gated", median(gatedNS))
	rep.layer("cpu.allocs_per_run", median(allocs))
	rep.layer("energy.price_us_per_run", median(priceUS))
	rep.layer("cache.l1_access_ns", median(l1NS))

	dCfg := cacti.DefaultDataConfig(tech.N70)
	iCfg := cacti.DefaultInstructionConfig(tech.N70)
	rep.layer("cacti.model_us", us(timeN(200, func() {
		cacti.New(dCfg)
		cacti.New(iCfg)
	})/2))
	nodes := tech.ProjectedNodes()
	k := 0
	rep.layer("circuit.transient_energy_ns", float64(timeN(20000, func() {
		it := circuit.TransientFor(nodes[k%len(nodes)])
		energySink += it.Energy(float64(1+k%64) * 1e-9)
		k++
	}).Nanoseconds()))
	return nil
}

// energySink keeps the timed transient evaluations from being optimised
// away.
var energySink float64

// measureSweep times one benchmark's gated data-cache sweep through the Lab
// (baseline already memoized) against the same ladder as experiments.Run
// calls over the shared trace, both on one worker, plus one fresh run at
// serve-mixed's cold size.
func measureSweep(e *env, rep *report, opts experiments.Options) error {
	o := opts
	o.Parallelism = 1
	bench := opts.BenchmarkList()[0]
	lab, err := experiments.NewLab(o)
	if err != nil {
		return err
	}
	if _, err := lab.Baseline(bench); err != nil {
		return err
	}
	sp := e.tr.start("experiments.GatedSweep", "sweep", nil)
	start := time.Now()
	pts, err := lab.GatedSweep(bench, experiments.DataCache, 0)
	took := time.Since(start)
	sp.end()
	if err != nil {
		return err
	}
	rep.layer("experiments.sweep_ms_per_point", ms(took)/float64(len(pts)))

	cfg := experiments.RunConfig{
		Benchmark: bench, Seed: o.Seed, Instructions: o.Instructions, SubarrayBytes: o.SubarrayBytes,
		IPolicy: experiments.Static(), ResizeInterval: o.ResizeInterval,
	}
	tr, err := experiments.RecordTrace(cfg)
	if err != nil {
		return err
	}
	cfg.Trace = tr
	sp = e.tr.start("experiments.Run.replay", "sweep", nil)
	start = time.Now()
	for _, p := range pts {
		cfg.DPolicy = experiments.GatedPolicy(p.Threshold, true)
		r, err := experiments.Run(cfg)
		if err != nil {
			return err
		}
		if r.CPU.Cycles != p.Outcome.CPU.Cycles {
			return fmt.Errorf("%s thr=%d: replayed run %d cycles, sweep point %d", bench, p.Threshold, r.CPU.Cycles, p.Outcome.CPU.Cycles)
		}
	}
	took = time.Since(start)
	sp.end()
	rep.layer("experiments.replay_ms_per_point", ms(took)/float64(len(pts)))

	cold := serveMixedConfig(e.seed)
	var runs []float64
	for k := 0; k < 5; k++ {
		c := experiments.RunConfig{
			Benchmark: bench, Seed: 1_000_000_000 + e.seed*10 + int64(k), Instructions: cold.coldInstructions,
			SubarrayBytes: o.SubarrayBytes,
			DPolicy:       experiments.GatedPolicy(o.ConstantThreshold, true), IPolicy: experiments.Static(),
		}
		sp := e.tr.start("experiments.Run.fresh", "cold", nil)
		start := time.Now()
		_, err := experiments.Run(c)
		runs = append(runs, ms(time.Since(start)))
		sp.end()
		if err != nil {
			return err
		}
	}
	rep.layer("experiments.run_ms", median(runs))
	return nil
}

// servedFigure is one figure a live daemon answers from its LRU: its path,
// the bytes it served, and the value to marshal again (nil to skip). When
// check is set the value was computed independently of the served bytes,
// and marshalling it must give them back.
type servedFigure struct {
	path  string
	body  []byte
	value any
	check bool
}

// measureServer records the serving layer's costs and counters on a live
// daemon whose loop has just run.
func measureServer(e *env, rep *report, srv *server.Server, c *client, before server.MetricsSnapshot, figs []servedFigure) error {
	after := srv.Metrics()
	hits := float64(after.CacheHits - before.CacheHits)
	lookups := hits + float64(after.StoreHits-before.StoreHits) + float64(after.CacheMisses-before.CacheMisses)
	ratio := 0.0
	if lookups > 0 {
		ratio = hits / lookups
	}
	rep.layer("server.lru_hit_ratio", ratio)
	fmt.Fprintf(os.Stderr, "server.lru_hit_ratio base: %.0f hits of %.0f lookups\n", hits, lookups)
	rep.layer("server.computes", float64(after.Computes-before.Computes))
	rep.layer("server.admission_wait_mean_ms",
		deltaMean(before.Admission["cold"].QueueWait, after.Admission["cold"].QueueWait)/1000)
	rep.layer("jobs.queue_wait_mean_ms", deltaMean(before.JobQueueWait, after.JobQueueWait)/1000)

	h := srv.Handler()
	path := figs[0].path
	var hitUS []float64
	for k := 0; k < 2000; k++ {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		hitUS = append(hitUS, us(time.Since(start)))
		if w.Code != http.StatusOK || w.Header().Get("X-Nanocache") != "hit" {
			return fmt.Errorf("in-memory GET %s: status %d disposition %q", path, w.Code, w.Header().Get("X-Nanocache"))
		}
	}
	rep.layer("server.hit_us", median(hitUS))

	var rtt []float64
	for k := 0; k < 500; k++ {
		start := time.Now()
		resp, err := c.do(http.MethodGet, "/healthz", nil)
		if err != nil {
			return err
		}
		rtt = append(rtt, us(time.Since(start)))
		if resp.status != http.StatusOK {
			return fmt.Errorf("healthz: status %d", resp.status)
		}
	}
	rep.layer("server.loopback_us", median(rtt))

	// Marshal the served figures again and check the bytes against what
	// the daemon served.
	var values []any
	for _, f := range figs {
		if f.value == nil {
			continue
		}
		b, err := verify.MarshalGolden(f.value)
		if err != nil {
			return err
		}
		if f.check {
			checkBytes(rep, "marshalled "+f.path+" vs served", b, f.body)
		}
		values = append(values, f.value)
	}
	sp := e.tr.start("verify.MarshalGolden", "marshal", nil)
	start := time.Now()
	for _, v := range values {
		if _, err := verify.MarshalGolden(v); err != nil {
			return err
		}
	}
	rep.layer("server.marshal_ms", ms(time.Since(start)))
	sp.end()
	return nil
}

// buildFigure computes a hit-set figure through the lab, as the registry
// does; nil for figures outside the evaluation's calls.
func buildFigure(lab *experiments.Lab, f figureReq) (any, error) {
	label := f.figure
	if side, ok := f.params["side"]; ok {
		label += "_" + side
	}
	for _, c := range evaluationCalls {
		if c.label == label {
			return c.call(lab, &evaluation{})
		}
	}
	return nil, nil
}

// deltaMean is the exact mean of the observations between two snapshots.
func deltaMean(a, b stats.LatencySnapshot) float64 {
	n := float64(b.Count) - float64(a.Count)
	if n <= 0 {
		return 0
	}
	return (b.Mean*float64(b.Count) - a.Mean*float64(a.Count)) / n
}

// measureStore times Put and Get of the workload's payloads in a scratch
// store with fsync off.
func measureStore(e *env, rep *report, payloads [][]byte) error {
	st, err := store.Open(store.Config{Dir: filepath.Join(e.scratch, "layer-store"), Schema: 1, Options: "perfbench"})
	if err != nil {
		return err
	}
	const n = 400
	sp := e.tr.start("store.Put", "store", nil)
	start := time.Now()
	for k := 0; k < n; k++ {
		if err := st.Put(fmt.Sprintf("key-%d", k), payloads[k%len(payloads)]); err != nil {
			return err
		}
	}
	put := time.Since(start) / n
	sp.end()
	sp = e.tr.start("store.Get", "store", nil)
	start = time.Now()
	for k := 0; k < n; k++ {
		b, ok := st.Get(fmt.Sprintf("key-%d", k))
		if !ok || len(b) != len(payloads[k%len(payloads)]) {
			return fmt.Errorf("store.Get key-%d: found %v, %d bytes", k, ok, len(b))
		}
	}
	get := time.Since(start) / n
	sp.end()
	rep.layer("store.put_us", us(put))
	rep.layer("store.get_us", us(get))
	return nil
}

// measureJobs runs one job of trivial points through a jobs.Manager with
// store-backed checkpoints: what is left is the orchestration per point.
func measureJobs(e *env, rep *report) error {
	dir := filepath.Join(e.scratch, "layer-jobs")
	st, err := store.Open(store.Config{Dir: filepath.Join(dir, "blobs"), Schema: 1, Options: "perfbench"})
	if err != nil {
		return err
	}
	const points = 200
	planner := func(spec jobs.Spec) (*jobs.Plan, error) {
		p := &jobs.Plan{ResultKey: "trivial|" + spec.Figure}
		for k := 0; k < points; k++ {
			p.Points = append(p.Points, jobs.Point{
				Key: fmt.Sprintf("p%d", k),
				Run: func(context.Context) ([]byte, error) { return []byte(`{"v":1}`), nil },
			})
		}
		p.Merge = func(_ context.Context, rs [][]byte) ([]byte, error) { return []byte(fmt.Sprint(len(rs))), nil }
		return p, nil
	}
	m, err := jobs.NewManager(jobs.Config{Workers: 1, Planner: planner, Blobs: st, RecordDir: filepath.Join(dir, "records")})
	if err != nil {
		return err
	}
	defer m.Close(context.Background())
	sp := e.tr.start("jobs.Manager", "jobs", nil)
	start := time.Now()
	j, err := m.Submit(jobs.Spec{Kind: "figure", Figure: "trivial"})
	if err != nil {
		return err
	}
	for !j.State.Terminal() {
		time.Sleep(100 * time.Microsecond)
		if j, err = m.Get(j.ID); err != nil {
			return err
		}
	}
	took := time.Since(start)
	sp.end()
	if j.State != jobs.StateDone {
		return fmt.Errorf("trivial job ended %s: %s", j.State, j.Error)
	}
	rep.layer("jobs.point_overhead_us", us(took)/points)
	return nil
}

// measureEnvelope times the peer wire format on the workload's point-sized
// payloads (those up to 64 KiB).
func measureEnvelope(rep *report, payloads [][]byte) {
	var envs []cluster.PeerEnvelope
	for k, p := range payloads {
		if len(p) <= 64<<10 {
			envs = append(envs, cluster.PeerEnvelope{Node: "n1", Key: fmt.Sprintf("figure|%d@digest", k), Payload: p})
		}
	}
	if len(envs) == 0 {
		envs = append(envs, cluster.PeerEnvelope{Node: "n1", Key: "k", Payload: payloads[0]})
	}
	wire := make([][]byte, len(envs))
	k := 0
	enc := timeN(2000, func() {
		wire[k%len(envs)] = envs[k%len(envs)].Encode()
		k++
	})
	k = 0
	var decodeErr error
	dec := timeN(2000, func() {
		if _, err := cluster.DecodePeerEnvelope(wire[k%len(envs)]); err != nil {
			decodeErr = err
		}
		k++
	})
	if decodeErr != nil {
		rep.failf("peer envelope round trip: %v", decodeErr)
	}
	rep.layer("cluster.envelope_encode_us", us(enc))
	rep.layer("cluster.envelope_verify_us", us(dec))
}

// measureFleet records the fleet round's cluster and distributed-sweep
// counters (0 on the workloads without a fleet).
func measureFleet(rep *report, fr *fleetRound) {
	var rtt, perEnv, hedges, fallbacks, dispatch float64
	if fr != nil {
		rtt = fr.peerRTT
		a, b := fr.before[0].DistSweep, fr.after[0].DistSweep
		if n := b.Batches - a.Batches; n > 0 {
			perEnv = float64(b.BatchPoints-a.BatchPoints) / float64(n)
		}
		hedges = float64(b.Hedged - a.Hedged)
		fallbacks = float64(b.FallbackLocal - a.FallbackLocal)
		dispatch = deltaMean(a.Latency, b.Latency) / 1000
		fmt.Fprintf(os.Stderr, "distsweep.points_per_envelope base: %d points in %d envelopes\n",
			b.BatchPoints-a.BatchPoints, b.Batches-a.Batches)
	}
	rep.layer("cluster.peer_rtt_us", rtt)
	rep.layer("distsweep.points_per_envelope", perEnv)
	rep.layer("distsweep.hedges", hedges)
	rep.layer("distsweep.fallbacks", fallbacks)
	rep.layer("distsweep.dispatch_mean_ms", dispatch)
}
