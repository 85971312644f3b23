package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"nanocache/internal/stats"
	"nanocache/internal/tech"
)

// SensitivityCell is one (seed, benchmark) share of the seed-sensitivity
// grid: the three headline metrics for the data cache at 70nm.
type SensitivityCell struct {
	Oracle float64 `json:"oracle"`
	Gated  float64 `json:"gated"`
	Slow   float64 `json:"slow"`
}

// sensitivitySeeds resolves the seed list (empty = the default spread).
func sensitivitySeeds(seeds []int64) []int64 {
	if len(seeds) == 0 {
		return []int64{1, 2, 3}
	}
	return seeds
}

// sensitivityCell computes one (seed, benchmark) cell: four policy runs over
// one shared recorded trace. At the lab's own seed the runs go through the
// run memo, where they are the baseline, oracle, on-demand and constant-
// threshold runs the figures already made. Off-base seeds record a
// cell-local trace and stay out of the memo, so the sweep across many seeds
// does not pin one trace per (seed, benchmark) for the lab's lifetime.
func (l *Lab) sensitivityCell(seed int64, bench string) (SensitivityCell, error) {
	cfg := l.runConfig(bench, Static(), Static())
	cfg.Seed = seed
	if seed != l.opts.Seed {
		tr, err := RecordTrace(cfg)
		if err != nil {
			return SensitivityCell{}, err
		}
		cfg.Trace = tr
	}
	base, err := l.run(cfg)
	if err != nil {
		return SensitivityCell{}, err
	}
	cfg.DPolicy, cfg.IPolicy = OraclePolicy(), OraclePolicy()
	orc, err := l.run(cfg)
	if err != nil {
		return SensitivityCell{}, err
	}
	cfg.DPolicy, cfg.IPolicy = GatedPolicy(l.opts.ConstantThreshold, true), Static()
	gat, err := l.run(cfg)
	if err != nil {
		return SensitivityCell{}, err
	}
	cfg.DPolicy, cfg.IPolicy = OnDemandPolicy(), Static()
	od, err := l.run(cfg)
	if err != nil {
		return SensitivityCell{}, err
	}
	return SensitivityCell{
		Oracle: 1 - orc.D.Discharge[tech.N70].Relative(),
		Gated:  1 - gat.D.Discharge[tech.N70].Relative(),
		Slow:   od.Slowdown(base),
	}, nil
}

// assembleSensitivity merges cells (seeds outer, benchmarks inner, both in
// input order) into the summary. The per-seed summaries accumulate in seed
// order — Summary.Add order is part of the byte contract.
func assembleSensitivity(l *Lab, seeds []int64, benches []string, cells []SensitivityCell) SensitivityResult {
	r := SensitivityResult{
		Seeds:     append([]int64(nil), seeds...),
		OracleD:   stats.NewSummary(),
		GatedD:    stats.NewSummary(),
		OnDemandD: stats.NewSummary(),
	}
	for si, seed := range seeds {
		var oracleRel, gatedRel, slow []float64
		for bi := range benches {
			c := cells[si*len(benches)+bi]
			oracleRel = append(oracleRel, c.Oracle)
			gatedRel = append(gatedRel, c.Gated)
			slow = append(slow, c.Slow)
		}
		r.OracleD.Add(stats.Mean(oracleRel))
		r.GatedD.Add(stats.Mean(gatedRel))
		r.OnDemandD.Add(stats.Mean(slow))
		l.note("sensitivity seed %d: oracle %.3f gated %.3f ondemand %.3f",
			seed, stats.Mean(oracleRel), stats.Mean(gatedRel), stats.Mean(slow))
	}
	return r
}

// sensitivityDecomposition factors the seed-sensitivity study into
// (seed × benchmark) cells over the default seed spread — the endpoint's
// only shape (the HTTP surface takes no seed parameter).
type sensitivityDecomposition struct{}

func init() { RegisterDecomposition("sensitivity", sensitivityDecomposition{}) }

func (sensitivityDecomposition) Plan(l *Lab, _ map[string]string) ([]Cell, error) {
	seeds := sensitivitySeeds(nil)
	benches := l.opts.benchmarks()
	cells := make([]Cell, 0, len(seeds)*len(benches))
	for _, seed := range seeds {
		for _, bench := range benches {
			s := strconv.FormatInt(seed, 10)
			cells = append(cells, Cell{
				Key:    cellKey("seed="+s, "bench="+bench),
				Params: map[string]string{"seed": s, "bench": bench},
			})
		}
	}
	return cells, nil
}

func (sensitivityDecomposition) ComputeCell(ctx context.Context, l *Lab, c Cell) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seed, err := strconv.ParseInt(c.Params["seed"], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("experiments: bad sensitivity cell seed %q", c.Params["seed"])
	}
	bench := c.Params["bench"]
	if bench == "" {
		return nil, fmt.Errorf("experiments: sensitivity cell without bench")
	}
	cell, err := l.sensitivityCell(seed, bench)
	if err != nil {
		return nil, err
	}
	return json.Marshal(cell)
}

func (sensitivityDecomposition) Assemble(l *Lab, _ map[string]string, payloads [][]byte) (any, error) {
	seeds := sensitivitySeeds(nil)
	benches := l.opts.benchmarks()
	if want := len(seeds) * len(benches); len(payloads) != want {
		return nil, fmt.Errorf("experiments: sensitivity expects %d cells, got %d", want, len(payloads))
	}
	cells := make([]SensitivityCell, len(payloads))
	for i, b := range payloads {
		if err := json.Unmarshal(b, &cells[i]); err != nil {
			return nil, fmt.Errorf("experiments: decoding sensitivity cell %d: %w", i, err)
		}
	}
	return assembleSensitivity(l, seeds, benches, cells), nil
}
