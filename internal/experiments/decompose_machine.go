package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"nanocache/internal/cpu"
	"nanocache/internal/stats"
)

// MachineCell is one (machine variant, benchmark) share of the machine-
// sensitivity study: the on-demand slowdown and conventional IPC on that
// design point.
type MachineCell struct {
	Slow float64 `json:"slow"`
	IPC  float64 `json:"ipc"`
}

// machineCell computes one cell: a conventional and an on-demand run on the
// given compiled-in machine variant. The Table 2 variant leaves
// RunConfig.CPU nil, so its runs share the digest, and the memo entries, of
// the lab's baseline and on-demand runs.
func (l *Lab) machineCell(variant int, bench string) (MachineCell, error) {
	variants := machineVariants()
	if variant < 0 || variant >= len(variants) {
		return MachineCell{}, fmt.Errorf("experiments: machine variant %d out of range", variant)
	}
	v := variants[variant]
	baseCfg := l.runConfig(bench, Static(), Static())
	odCfg := l.runConfig(bench, OnDemandPolicy(), Static())
	if v.cfg != cpu.DefaultConfig() {
		baseCfg.CPU, odCfg.CPU = &v.cfg, &v.cfg
	}
	base, err := l.run(baseCfg)
	if err != nil {
		return MachineCell{}, err
	}
	od, err := l.run(odCfg)
	if err != nil {
		return MachineCell{}, err
	}
	return MachineCell{Slow: od.Slowdown(base), IPC: base.CPU.IPC}, nil
}

// assembleMachineSensitivity merges cells (variants outer, benchmarks inner,
// both in input order) into the design-point table.
func assembleMachineSensitivity(l *Lab, benches []string, cells []MachineCell) MachineSensitivityResult {
	var r MachineSensitivityResult
	for vi, v := range machineVariants() {
		var slows, ipcs []float64
		for bi := range benches {
			c := cells[vi*len(benches)+bi]
			slows = append(slows, c.Slow)
			ipcs = append(ipcs, c.IPC)
		}
		r.Configs = append(r.Configs, v.name)
		r.OnDemandD = append(r.OnDemandD, stats.Mean(slows))
		r.BaseIPC = append(r.BaseIPC, stats.Mean(ipcs))
		l.note("machine %s: on-demand %.4f IPC %.3f", v.name,
			r.OnDemandD[len(r.OnDemandD)-1], r.BaseIPC[len(r.BaseIPC)-1])
	}
	return r
}

// machineDecomposition factors the machine-sensitivity study into
// (variant × benchmark) cells. Variants travel by index — the design points
// are compiled in, and the index is stable because machineVariants() is an
// ordered literal.
type machineDecomposition struct{}

func init() { RegisterDecomposition("machine", machineDecomposition{}) }

func (machineDecomposition) Plan(l *Lab, _ map[string]string) ([]Cell, error) {
	variants := machineVariants()
	benches := l.opts.benchmarks()
	cells := make([]Cell, 0, len(variants)*len(benches))
	for vi := range variants {
		for _, bench := range benches {
			v := strconv.Itoa(vi)
			cells = append(cells, Cell{
				Key:    cellKey("variant="+v, "bench="+bench),
				Params: map[string]string{"variant": v, "bench": bench},
			})
		}
	}
	return cells, nil
}

func (machineDecomposition) ComputeCell(ctx context.Context, l *Lab, c Cell) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	variant, err := strconv.Atoi(c.Params["variant"])
	if err != nil {
		return nil, fmt.Errorf("experiments: bad machine cell variant %q", c.Params["variant"])
	}
	bench := c.Params["bench"]
	if bench == "" {
		return nil, fmt.Errorf("experiments: machine cell without bench")
	}
	cell, err := l.machineCell(variant, bench)
	if err != nil {
		return nil, err
	}
	return json.Marshal(cell)
}

func (machineDecomposition) Assemble(l *Lab, _ map[string]string, payloads [][]byte) (any, error) {
	benches := l.opts.benchmarks()
	if want := len(machineVariants()) * len(benches); len(payloads) != want {
		return nil, fmt.Errorf("experiments: machine expects %d cells, got %d", want, len(payloads))
	}
	cells := make([]MachineCell, len(payloads))
	for i, b := range payloads {
		if err := json.Unmarshal(b, &cells[i]); err != nil {
			return nil, fmt.Errorf("experiments: decoding machine cell %d: %w", i, err)
		}
	}
	return assembleMachineSensitivity(l, benches, cells), nil
}
