package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"time"

	"nanocache/internal/cluster"
	"nanocache/internal/experiments"
	"nanocache/internal/server"
	"nanocache/internal/verify"
)

// fleetOptions is fleet-jobs' lab configuration: four benchmarks at Quick
// scale, each member's lab one run wide.
func fleetOptions(seed int64) experiments.Options {
	o := experiments.QuickOptions()
	o.Seed = seed
	o.Benchmarks = []string{"art", "health", "gcc", "wupwise"}
	o.Parallelism = 1
	return o
}

// fleetJobs are the decomposed figure jobs one client submits per round.
var fleetJobs = []string{"fig10", "sensitivity"}

// fleet is two daemons in this process forming a cluster over loopback,
// with the daemon's default hedging and replica count.
type fleet struct {
	members []*daemon
	clients []*client
}

func bootFleet(opts experiments.Options, dir string) (*fleet, error) {
	const n = 2
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i+1), Addr: ln.Addr().String()}
	}
	f := &fleet{}
	for i, ln := range lns {
		srv, err := server.New(server.Config{
			Options:  opts,
			StoreDir: filepath.Join(dir, peers[i].ID),
			Cluster:  &cluster.Config{Self: peers[i].ID, Peers: peers},
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, errors.Join(err, f.stop())
		}
		d := startDaemon(srv, ln)
		f.members = append(f.members, d)
		f.clients = append(f.clients, newClient(d.addr, 2))
	}
	for _, c := range f.clients {
		resp, err := c.do(http.MethodGet, "/healthz", nil)
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		if resp.status != http.StatusOK {
			return nil, errors.Join(fmt.Errorf("healthz: status %d", resp.status), f.stop())
		}
	}
	return f, nil
}

func (f *fleet) stop() error {
	var errs []error
	for i, d := range f.members {
		f.clients[i].close()
		errs = append(errs, d.stop())
	}
	return errors.Join(errs...)
}

// fleetRound is what one round's checks and layer metrics need.
type fleetRound struct {
	results map[string][2][]byte // figure → bytes from member 1 and member 2
	before  [2]server.MetricsSnapshot
	after   [2]server.MetricsSnapshot
	// jobMS are the jobs' submit-to-result latencies.
	jobMS []float64
	// peerRTT is the median peer object fetch over loopback in µs (traced
	// runs only).
	peerRTT float64
}

// payloads returns the round's result bytes.
func (fr *fleetRound) payloads() [][]byte {
	var out [][]byte
	for _, fig := range fleetJobs {
		out = append(out, fr.results[fig][0])
	}
	return out
}

// runFleetRound submits the jobs to member 1, waits for them, and fetches
// every result from both members.
func runFleetRound(e *env, f *fleet, run string, rep *report) (time.Duration, *fleetRound, error) {
	fr := &fleetRound{results: map[string][2][]byte{}}
	for i, d := range f.members {
		fr.before[i] = d.srv.Metrics()
	}
	root := e.tr.start("fleet.round", run, nil)
	start := time.Now()
	type submitted struct {
		figure string
		err    error
		body   []byte
		took   time.Duration
	}
	done := make(chan submitted, len(fleetJobs))
	for _, fig := range fleetJobs {
		go func(fig string) {
			sp := e.tr.start("jobs.job."+fig, run, root)
			defer sp.end()
			t0 := time.Now()
			_, result, err := f.clients[0].submitJob(fig, nil)
			if err == nil && result.status != http.StatusOK {
				err = fmt.Errorf("%s job result: status %d", fig, result.status)
			}
			done <- submitted{fig, err, result.body, time.Since(t0)}
		}(fig)
	}
	for range fleetJobs {
		s := <-done
		rep.op(s.err)
		if s.err == nil {
			r := fr.results[s.figure]
			r[0] = s.body
			fr.results[s.figure] = r
			fr.jobMS = append(fr.jobMS, ms(s.took))
		}
	}
	for _, fig := range fleetJobs {
		sp := e.tr.start("server.request.peer-fetch", run, root)
		resp, err := f.clients[1].do(http.MethodGet, "/v1/figures/"+fig, nil)
		sp.end()
		if err == nil && resp.status != http.StatusOK {
			err = fmt.Errorf("%s from member 2: status %d", fig, resp.status)
		}
		rep.op(err)
		if err == nil {
			r := fr.results[fig]
			r[1] = resp.body
			fr.results[fig] = r
		}
	}
	took := time.Since(start)
	root.end()
	for i, d := range f.members {
		fr.after[i] = d.srv.Metrics()
	}
	checkMembersComputed(rep, run, fr.before, fr.after)
	if e.traced {
		rtt, err := peerRTT(f)
		if err != nil {
			return 0, nil, err
		}
		fr.peerRTT = rtt
		// The serving layer, measured on member 1 while the fleet is up.
		var figs []servedFigure
		for _, fig := range fleetJobs {
			v, err := decodeFigure(fig, fr.results[fig][0])
			if err != nil {
				return 0, nil, err
			}
			figs = append(figs, servedFigure{path: "/v1/figures/" + fig, body: fr.results[fig][0], value: v})
		}
		if err := measureServer(e, rep, f.members[0].srv, f.clients[0], fr.before[0], figs); err != nil {
			return 0, nil, err
		}
	}
	return took, fr, nil
}

// decodeFigure parses a fleet job's result into its figure type, so the
// traced run can time marshalling it again.
func decodeFigure(fig string, b []byte) (any, error) {
	switch fig {
	case "fig10":
		var v experiments.Fig10Result
		err := json.Unmarshal(b, &v)
		return v, err
	case "sensitivity":
		var v experiments.SensitivityResult
		err := json.Unmarshal(b, &v)
		return v, err
	}
	return nil, fmt.Errorf("no figure type for %s", fig)
}

// peerRTT times member 1's peer object endpoint, as a peer's read-through
// calls it, on a resident key.
func peerRTT(f *fleet) (float64, error) {
	key, err := f.members[0].srv.ResultKeyForFigure("fig10", nil)
	if err != nil {
		return 0, err
	}
	path := cluster.PathObject + "?key=" + url.QueryEscape(key)
	var rtt []float64
	for k := 0; k < 300; k++ {
		start := time.Now()
		resp, err := f.clients[0].do(http.MethodGet, path, nil)
		if err != nil {
			return 0, err
		}
		rtt = append(rtt, us(time.Since(start)))
		if resp.status != http.StatusOK {
			return 0, fmt.Errorf("peer object %s: status %d", key, resp.status)
		}
	}
	return median(rtt), nil
}

// runFleetJobs is the fleet-jobs workload: every round boots a fresh
// two-member fleet (fresh stores, fresh labs), so each round's jobs compute
// from scratch.
func runFleetJobs(e *env) (*report, error) {
	rep := newReport()
	opts := fleetOptions(e.seed)
	dir := func(i int) string { return filepath.Join(e.scratch, fmt.Sprintf("fleet-%d", i)) }
	f, err := bootFleet(opts, dir(0))
	if err != nil {
		return nil, err
	}
	rep.setupDone()

	var frs []*fleetRound
	var runsBefore, runsAfter uint64
	round := func(i int) (time.Duration, error) {
		if i > 0 {
			runtime.GC()
			var err error
			if f, err = bootFleet(opts, dir(i)); err != nil {
				return 0, err
			}
		}
		runsBefore = experiments.RunsExecuted()
		took, fr, err := runFleetRound(e, f, fmt.Sprintf("round-%d", i), rep)
		runsAfter = experiments.RunsExecuted()
		if serr := f.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return 0, err
		}
		// The round's stores stay until the process exits: deleting
		// thousands of files mid-run slows the next round's file creation.
		frs = append(frs, fr)
		return took, nil
	}
	ds, err := e.runRounds(round)
	if err != nil {
		return nil, err
	}
	if e.traced {
		rep.layer("traced.wall_s", ds[0].Seconds())
		rep.layer("experiments.runs", float64(runsAfter-runsBefore))
		rep.layer("jobs.job_p50_ms", median(frs[0].jobMS))
		if err := measureLayers(e, rep, opts, &layerInputs{fleet: frs[0], payloads: frs[0].payloads()}); err != nil {
			return nil, err
		}
	} else {
		if err := recordPeak(rep); err != nil {
			return nil, err
		}
		rep.e2e("wall_s", median(seconds(ds)))
	}
	if err := checkFleet(rep, opts, frs); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkFleet compares every round's job bytes, from both members, with the
// same figures built by a standalone Lab.
func checkFleet(rep *report, opts experiments.Options, frs []*fleetRound) error {
	lab, err := experiments.NewLab(opts)
	if err != nil {
		return err
	}
	var d digester
	for _, fig := range fleetJobs {
		var v any
		switch fig {
		case "fig10":
			v, err = lab.Figure10(nil)
		case "sensitivity":
			v, err = lab.Sensitivity(nil)
		}
		if err != nil {
			return err
		}
		want, err := verify.MarshalGolden(v)
		if err != nil {
			return err
		}
		d.addBytes(fig, want)
		for i, fr := range frs {
			for m, got := range fr.results[fig] {
				if got == nil {
					continue // the fetch failed and is counted in failed
				}
				checkBytes(rep, fmt.Sprintf("round %d %s from member %d vs a standalone Lab", i, fig, m+1), got, want)
			}
		}
	}
	rep.digest = d.sum()
	return nil
}
