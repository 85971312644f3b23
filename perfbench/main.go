// Command perfbench is nanocache's benchmark. It runs one named workload
// in-process through the packages' exported functions, checks that the
// program's outputs are correct, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (timed at the client or
// the process, tracing off); with -trace 1 the workload runs once with
// spans recorded around the calls into each layer, and the metrics are the
// per-layer ones. See README.md for the workloads, metrics and seeds.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload figures-quick -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// processStart is the benchmark's time origin for setup_s. run.sh exports
// the wall-clock nanoseconds just before it execs the binary, so setup_s
// covers exec, runtime and package initialisation too; without it the
// origin is this package's initialisation.
var processStart = func() time.Time {
	if ns, err := strconv.ParseInt(os.Getenv("PERFBENCH_EXEC_NS"), 10, 64); err == nil && ns > 0 {
		return time.Unix(0, ns)
	}
	return time.Now()
}()

// outDir holds what a run leaves behind: span files and scratch stores.
const outDir = "perfbench/out"

// workloadFunc runs one workload and fills in its report.
type workloadFunc func(env *env) (*report, error)

var workloads = map[string]workloadFunc{
	"figures-quick": runFiguresQuick,
	"fig8-default":  runFig8Default,
	"fleet-jobs":    runFleetJobs,
	// serve-mixed is run by hand only: BENCHMARK.json leaves it out because
	// its wall_s is not steady enough on a 2-vCPU host (README.md).
	"serve-mixed": runServeMixed,
}

// env is what every workload receives.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	tr      *tracer
	// scratch is a per-process directory for stores, removed at exit.
	scratch string
}

// mainStart is when main began; setup_s minus it is exec and
// initialisation.
var mainStart time.Time

func main() {
	mainStart = time.Now()
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "seconds of timed work per run (whole rounds; at least one)")
	trace := fs.Int("trace", 0, "1 runs the workload once with spans and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return 2, fmt.Errorf("unknown workload %q (known: %v)", *name, names)
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(scratch)

	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1, scratch: scratch}
	if e.traced {
		e.tr = newTracer()
	}
	rep, err := wl(e)
	if err != nil {
		return 1, err
	}
	if e.traced {
		if err := printOverhead(stderr, *name, rep.layers["traced.wall_s"]); err != nil {
			return 1, err
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := e.tr.write(path); err != nil {
			return 1, err
		}
		fmt.Fprintf(stderr, "wrote %d spans to %s\n", e.tr.len(), path)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "CHECK FAILED:", p)
	}
	if err := rep.print(stdout, e.traced); err != nil {
		return 1, err
	}
	return 0, nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what every untraced run prints, and perLayerMetrics
// what every traced run prints; BENCHMARK.json lists the same names and
// units (TestMetricsMatchBenchmarkJSON keeps the two in step).
var endToEndMetrics = []metricDef{{"setup_s", "s"}, {"wall_s", "s"}, {"peak_rss_mb", "MB"}}

func perLayerMetrics() []metricDef {
	defs := []metricDef{{"traced.wall_s", "s"}, {"experiments.runs", "count"}}
	for _, f := range evaluationFigures() {
		defs = append(defs, metricDef{"experiments.figure_ms." + f, "ms"})
	}
	return append(defs, []metricDef{
		{"experiments.sweep_ms_per_point", "ms"},
		{"experiments.replay_ms_per_point", "ms"},
		{"experiments.run_ms", "ms"},
		{"workload.record_ns_per_instr", "ns"},
		{"isa.replay_ns_per_op", "ns"},
		{"cpu.ns_per_instr", "ns"},
		{"cpu.ns_per_instr_gated", "ns"},
		{"cpu.allocs_per_run", "count"},
		{"cache.l1_access_ns", "ns"},
		{"energy.price_us_per_run", "us"},
		{"cacti.model_us", "us"},
		{"circuit.transient_energy_ns", "ns"},
		{"server.hit_us", "us"},
		{"server.loopback_us", "us"},
		{"server.marshal_ms", "ms"},
		{"server.lru_hit_ratio", "ratio"},
		{"server.computes", "count"},
		{"server.admission_wait_mean_ms", "ms"},
		{"store.put_us", "us"},
		{"store.get_us", "us"},
		{"jobs.job_p50_ms", "ms"},
		{"jobs.point_overhead_us", "us"},
		{"jobs.queue_wait_mean_ms", "ms"},
		{"cluster.envelope_encode_us", "us"},
		{"cluster.envelope_verify_us", "us"},
		{"cluster.peer_rtt_us", "us"},
		{"distsweep.points_per_envelope", "points"},
		{"distsweep.hedges", "count"},
		{"distsweep.fallbacks", "count"},
		{"distsweep.dispatch_mean_ms", "ms"},
	}...)
}

// report is a finished run: the operation counts, the checks' verdict, the
// metrics of both kinds (units come from their declarations) and the digest
// of every simulated result.
type report struct {
	attempted, failed int
	problems          []string
	endToEnd          map[string]float64
	layers            map[string]float64
	digest            string
}

func newReport() *report {
	return &report{endToEnd: map[string]float64{}, layers: map[string]float64{}}
}

// failf records a failed output check.
func (r *report) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// op counts one attempted operation, and a failed one when err is set. A
// failed operation is counted, not judged: the checks speak of the
// operations that succeeded.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "operation failed:", err)
	}
}

func (r *report) e2e(name string, v float64) { r.endToEnd[name] = v }

// setupDone records setup_s: from the process's start to now.
func (r *report) setupDone() {
	now := time.Now()
	r.e2e("setup_s", now.Sub(processStart).Seconds())
	fmt.Fprintf(os.Stderr, "setup: exec and initialisation %.3f ms, set-up %.3f ms\n",
		ms(mainStart.Sub(processStart)), ms(now.Sub(mainStart)))
}

func (r *report) layer(name string, v float64) { r.layers[name] = v }

// print writes one "name value unit" line per metric of the run's kind,
// the digest line and the closing JSON object. A per-layer metric the
// workload does not measure (its layer does not run) prints as 0.
func (r *report) print(w io.Writer, traced bool) error {
	defs, got := endToEndMetrics, r.endToEnd
	if traced {
		defs, got = perLayerMetrics(), r.layers
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.name, v, d.unit)
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	fmt.Fprintf(w, "digest %s\n", r.digest)
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
