package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// referenceJSON holds untraced reference medians, stamped with the machine
// they were measured on (README.md, "Reference medians").
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Machine    string             `json:"machine"`
	CPUs       int                `json:"cpus"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	WallS      map[string]float64 `json:"wall_s"`
}

// printOverhead prints a traced run's wall_s beside the untraced reference
// median, so the tracing overhead shows.
func printOverhead(w io.Writer, workload string, traced float64) error {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	untraced, ok := ref.WallS[workload]
	if !ok {
		return fmt.Errorf("reference.json has no wall_s for %s", workload)
	}
	fmt.Fprintf(w, "traced wall_s %.4g s, untraced reference median %.4g s (%s): %+.1f%%\n",
		traced, untraced, ref.Machine, 100*(traced/untraced-1))
	if runtime.NumCPU() != ref.CPUs || runtime.GOMAXPROCS(0) != ref.GOMAXPROCS {
		fmt.Fprintf(w, "the reference was measured with %d CPUs and GOMAXPROCS %d, this run has %d and %d: not comparable\n",
			ref.CPUs, ref.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	return nil
}
