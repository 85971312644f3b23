package server

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"nanocache/internal/circuit"
	"nanocache/internal/experiments"
)

// figureSpec describes one /v1/figures/{name} endpoint: a documented builder
// plus the query parameters it accepts. The registry makes adding an
// endpoint a one-entry change (DESIGN.md §9) and gives GET /v1/figures a
// machine-readable index for free.
type figureSpec struct {
	// Doc is a one-line description served in the index.
	Doc string `json:"doc"`
	// Params names the accepted query parameters, e.g. "side=d|i".
	Params []string `json:"params,omitempty"`
	// Cheap marks analytic builders that run no architectural simulation;
	// their cache misses wait in the cheap admission class (served before
	// queued cold work, admission.go) instead of the cold one. Served in
	// the index so clients can see which endpoints are safe to hammer.
	Cheap bool `json:"cheap,omitempty"`
	// build computes the result. It must be deterministic in (lab options,
	// canonical params): the response is cached under exactly that key.
	build func(ctx context.Context, lab *experiments.Lab, q url.Values) (any, error)
}

// class maps the spec onto its admission class.
func (f figureSpec) class() reqClass {
	if f.Cheap {
		return classCheap
	}
	return classCold
}

// badParamError marks a client mistake (400 rather than 500).
type badParamError struct{ msg string }

func (e badParamError) Error() string { return e.msg }

func badParamf(format string, args ...any) error {
	return badParamError{msg: fmt.Sprintf(format, args...)}
}

// parseSide decodes the side=d|i query parameter (default data cache).
func parseSide(q url.Values) (experiments.CacheSide, error) {
	switch q.Get("side") {
	case "", "d", "d-cache", "data":
		return experiments.DataCache, nil
	case "i", "i-cache", "instruction":
		return experiments.InstructionCache, nil
	}
	return 0, badParamf("bad side %q (want d or i)", q.Get("side"))
}

// parseInts decodes a comma-separated positive integer list parameter.
func parseInts(q url.Values, name string) ([]int, error) {
	raw := q.Get(name)
	if raw == "" {
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, badParamf("bad %s element %q (want positive integers)", name, p)
		}
		out = append(out, v)
	}
	return out, nil
}

// checkSubarraySizes rejects Figure 10 subarray sizes the L1 cannot be
// built with: a size must be a multiple of the line that divides the cache
// (32 B … 32 KB for the paper's 32 KB L1 with 32 B lines). Every accepted
// size memoizes a baseline and a sweep per benchmark in the lab for its
// lifetime, so the check also bounds what a query string can make it hold.
func checkSubarraySizes(sizes []int) error {
	g := circuit.DefaultGeometry()
	for _, s := range sizes {
		if s%g.LineBytes != 0 || g.CacheBytes%s != 0 {
			return badParamf("bad sizes element %d (want a multiple of the %d B line that divides the %d B L1: %d … %d)",
				s, g.LineBytes, g.CacheBytes, g.LineBytes, g.CacheBytes)
		}
	}
	return nil
}

// figureRegistry maps endpoint names to builders. Everything the figures CLI
// can produce is servable; expensive entries amortize through the lab's
// memoization and the server's LRU.
var figureRegistry = map[string]figureSpec{
	"fig2": {
		Doc:   "isolation transients across CMOS nodes (no simulation)",
		Cheap: true,
		build: func(_ context.Context, _ *experiments.Lab, _ url.Values) (any, error) {
			return experiments.Figure2(), nil
		},
	},
	"table3": {
		Doc:   "decoder stage and worst-case pull-up delays vs the paper",
		Cheap: true,
		build: func(_ context.Context, _ *experiments.Lab, _ url.Values) (any, error) {
			return experiments.Table3()
		},
	},
	"fig3": {
		Doc: "oracle potential: relative discharge bound per benchmark",
		build: func(_ context.Context, lab *experiments.Lab, _ url.Values) (any, error) {
			return lab.Figure3()
		},
	},
	"ondemand": {
		Doc: "on-demand precharging slowdowns per benchmark",
		build: func(_ context.Context, lab *experiments.Lab, _ url.Values) (any, error) {
			return lab.OnDemand()
		},
	},
	"locality": {
		Doc:    "subarray reference locality (Figs. 5 and 6)",
		Params: []string{"side=d|i"},
		build: func(_ context.Context, lab *experiments.Lab, q url.Values) (any, error) {
			side, err := parseSide(q)
			if err != nil {
				return nil, err
			}
			return lab.Locality(side)
		},
	},
	"fig8": {
		Doc:    "gated precharging at per-benchmark optimum thresholds",
		Params: []string{"side=d|i"},
		build: func(_ context.Context, lab *experiments.Lab, q url.Values) (any, error) {
			side, err := parseSide(q)
			if err != nil {
				return nil, err
			}
			return lab.Figure8(side)
		},
	},
	"fig9": {
		Doc: "gated vs resizable across technology generations",
		build: func(_ context.Context, lab *experiments.Lab, _ url.Values) (any, error) {
			return lab.Figure9()
		},
	},
	"fig10": {
		Doc:    "subarray-size sensitivity",
		Params: []string{"sizes=4096,1024,..."},
		build: func(_ context.Context, lab *experiments.Lab, q url.Values) (any, error) {
			sizes, err := parseInts(q, "sizes")
			if err != nil {
				return nil, err
			}
			return lab.Figure10(sizes)
		},
	},
	"predecode": {
		Doc: "predecoding hint accuracy and stall cut (Sec. 6.3)",
		build: func(_ context.Context, lab *experiments.Lab, _ url.Values) (any, error) {
			return lab.Predecode()
		},
	},
	"overhead": {
		Doc:   "gated hardware overhead bound (Sec. 6.2, no simulation)",
		Cheap: true,
		build: func(_ context.Context, _ *experiments.Lab, _ url.Values) (any, error) {
			return experiments.Overhead(), nil
		},
	},
	"processor": {
		Doc: "processor-level energy accounting",
		build: func(_ context.Context, lab *experiments.Lab, _ url.Values) (any, error) {
			return lab.Processor()
		},
	},
	"alpha": {
		Doc: "Alpha 21164 L2 on-demand comparison (Sec. 2)",
		build: func(_ context.Context, lab *experiments.Lab, _ url.Values) (any, error) {
			return lab.Alpha21164()
		},
	},
	"extensions": {
		Doc: "reproduction extensions (adaptive gated, drowsy, way prediction)",
		build: func(_ context.Context, lab *experiments.Lab, _ url.Values) (any, error) {
			return lab.Extensions()
		},
	},
	"projection": {
		Doc: "50nm projection",
		build: func(_ context.Context, lab *experiments.Lab, _ url.Values) (any, error) {
			return lab.Projection()
		},
	},
	"smt": {
		Doc: "two-way SMT interleaving cache-side effects",
		build: func(_ context.Context, lab *experiments.Lab, _ url.Values) (any, error) {
			return lab.SMT()
		},
	},
	"machine": {
		Doc: "machine-configuration sensitivity",
		build: func(_ context.Context, lab *experiments.Lab, _ url.Values) (any, error) {
			return lab.MachineSensitivity()
		},
	},
	"sensitivity": {
		Doc: "workload seed sensitivity",
		build: func(_ context.Context, lab *experiments.Lab, _ url.Values) (any, error) {
			return lab.Sensitivity(nil)
		},
	},
	"summary": {
		Doc: "reproduction summary with acceptance bands",
		build: func(_ context.Context, lab *experiments.Lab, _ url.Values) (any, error) {
			return lab.Summary()
		},
	},
	"profile": {
		Doc:    "per-subarray pull-up profile of one benchmark",
		Params: []string{"bench=<name>"},
		build: func(_ context.Context, lab *experiments.Lab, q url.Values) (any, error) {
			bench := q.Get("bench")
			if bench == "" {
				return nil, badParamf("profile requires ?bench=<name>")
			}
			return lab.SubarrayProfile(bench)
		},
	},
}

// figureNames returns the registry's names sorted.
func figureNames() []string {
	names := make([]string, 0, len(figureRegistry))
	for name := range figureRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// canonicalFigureParams resolves a figure request's parameters to their
// canonical values, in the spec's declared order (unknown parameters are
// rejected so they can never alias). The same pairs feed the cache key and —
// for decomposable figures — the decomposition registry's Plan/Assemble, so
// a job's cells are planned from exactly the values the key was derived from.
func canonicalFigureParams(name string, spec figureSpec, q url.Values) ([][2]string, error) {
	allowed := map[string]bool{}
	for _, p := range spec.Params {
		allowed[strings.SplitN(p, "=", 2)[0]] = true
	}
	for k := range q {
		if !allowed[k] {
			return nil, badParamf("figure %s does not accept parameter %q", name, k)
		}
	}
	pairs := make([][2]string, 0, len(spec.Params))
	for _, p := range spec.Params {
		k := strings.SplitN(p, "=", 2)[0]
		v := q.Get(k)
		// Normalize aliases so "?side=d-cache" and "?side=d" (and the
		// default) share one cache entry instead of three identical ones.
		switch k {
		case "side":
			side, err := parseSide(q)
			if err != nil {
				return nil, err
			}
			if side == experiments.DataCache {
				v = "d"
			} else {
				v = "i"
			}
		case "sizes":
			sizes, err := parseInts(q, k)
			if err != nil {
				return nil, err
			}
			if err := checkSubarraySizes(sizes); err != nil {
				return nil, err
			}
			parts := make([]string, len(sizes))
			for i, s := range sizes {
				parts[i] = strconv.Itoa(s)
			}
			v = strings.Join(parts, ",")
		}
		pairs = append(pairs, [2]string{k, v})
	}
	return pairs, nil
}

// canonicalFigureKey renders the cache-key fragment for a figure request:
// name plus its accepted parameters in fixed order with defaults resolved
// where cheap.
func canonicalFigureKey(name string, spec figureSpec, q url.Values) (string, error) {
	pairs, err := canonicalFigureParams(name, spec, q)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(name)
	for _, kv := range pairs {
		b.WriteByte('|')
		b.WriteString(kv[0])
		b.WriteByte('=')
		b.WriteString(kv[1])
	}
	return b.String(), nil
}
