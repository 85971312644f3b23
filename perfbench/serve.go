package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nanocache/internal/experiments"
	"nanocache/internal/jobs"
	"nanocache/internal/server"
	"nanocache/internal/verify"
)

// loopConns is the closed loop's connection count: two connections, each
// sending its next request when the previous one has been answered.
const loopConns = 2

// Request classes of the serving script.
const (
	classHit       = "hit"        // GET of a primed figure: answered by the LRU
	classPromote   = "promote"    // POST /v1/run of a primed run evicted from the LRU: answered by the store
	classCold      = "cold"       // POST /v1/run with a never-seen seed: admission, simulation, pricing, marshalling
	classJobSubmit = "job-submit" // POST /v1/jobs of a fig10 job whose result is not cached
	classJobResult = "job-result" // GET /v1/jobs/{id}/result after the job is done
)

// figureReq is one figure request of the hit set.
type figureReq struct {
	figure string
	params map[string]string
}

func (f figureReq) path() string {
	q := url.Values{}
	for k, v := range f.params {
		q.Set(k, v)
	}
	p := "/v1/figures/" + f.figure
	if len(q) > 0 {
		p += "?" + q.Encode()
	}
	return p
}

// serveConfig sizes one serving run.
type serveConfig struct {
	opts experiments.Options
	// hitSet is primed at setup; each round GETs every entry at least once.
	hitSet []figureReq
	// jobSizes are the Figure 10 subarray sizes the jobs draw their size
	// lists from; their sweeps are primed, so a job's cells come from the
	// lab's memo while its result key is new.
	jobSizes []int
	// promoteInstructions and coldInstructions size the /v1/run configs.
	promoteInstructions, coldInstructions uint64
	// Per-round request counts; every round ends with one job.
	hits, promotes, colds int
	// fixedRounds, when >0, runs exactly that many rounds instead of
	// rounds for the requested seconds.
	fixedRounds int
}

// lruEntries sizes the daemon's LRU: the hit set plus two rounds of new
// keys (promotions, cold runs and job results) and a margin, so a hit key
// is never evicted between two of its GETs while a promotion key always is
// (the promote pool is larger, see poolSize).
func (c serveConfig) lruEntries() int {
	return len(c.hitSet) + 2*(c.promotes+c.colds+1) + 10
}

// poolSize is the number of primed promote configs; cycling through more
// keys than the LRU holds makes every promotion a store read.
func (c serveConfig) poolSize() int { return c.lruEntries() + 2*c.promotes + 8 }

// serveMixedConfig is the serve-mixed workload: a 4-benchmark Quick daemon.
func serveMixedConfig(seed int64) serveConfig {
	opts := experiments.QuickOptions()
	opts.Seed = seed
	opts.Benchmarks = []string{"art", "health", "gcc", "wupwise"}
	hit := []figureReq{
		{"fig2", nil}, {"table3", nil}, {"fig3", nil}, {"ondemand", nil},
		{"locality", map[string]string{"side": "d"}}, {"locality", map[string]string{"side": "i"}},
		{"fig8", map[string]string{"side": "d"}}, {"fig8", map[string]string{"side": "i"}},
		{"fig9", nil}, {"fig10", nil}, {"predecode", nil}, {"overhead", nil},
		{"processor", nil}, {"alpha", nil}, {"extensions", nil}, {"projection", nil},
		{"smt", nil}, {"machine", nil}, {"sensitivity", nil}, {"summary", nil},
		{"profile", map[string]string{"bench": "gcc"}},
	}
	return serveConfig{
		opts:                opts,
		hitSet:              hit,
		jobSizes:            []int{4096, 2048, 1024, 512, 256, 128, 64},
		promoteInstructions: 5_000,
		coldInstructions:    10_000,
		hits:                800, promotes: 32, colds: 8,
	}
}

// daemon is one server.Server behind a loopback listener.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	addr string
	done chan struct{}
}

// startDaemon boots srv's handler on a loopback listener.
func startDaemon(srv *server.Server, ln net.Listener) *daemon {
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d
}

// stop shuts the listener and the server down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.done
	if cerr := d.srv.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// client is the closed loop's HTTP client: at most conns connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string, conns int) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
			Timeout:   2 * time.Minute,
		},
		base: "http://" + addr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one finished request.
type response struct {
	status      int
	disposition string
	body        []byte
}

func (c *client) do(method, path string, body []byte) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, disposition: resp.Header.Get("X-Nanocache"), body: b}, nil
}

// waitJob follows a job's event stream until its terminal snapshot.
func (c *client) waitJob(id string) (jobs.Job, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return jobs.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Job{}, fmt.Errorf("job %s events: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var j jobs.Job
		if err := json.Unmarshal([]byte(data), &j); err != nil {
			return jobs.Job{}, fmt.Errorf("job %s event: %w", id, err)
		}
		if j.State.Terminal() {
			return j, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobs.Job{}, err
	}
	return jobs.Job{}, fmt.Errorf("job %s: event stream ended before a terminal state", id)
}

// submitJob runs one figure job end to end: submit, follow, fetch.
func (c *client) submitJob(figure string, params map[string]string) (submit, result response, err error) {
	body, err := json.Marshal(map[string]any{"figure": figure, "params": params})
	if err != nil {
		return response{}, response{}, err
	}
	submit, err = c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return submit, response{}, err
	}
	if submit.status != http.StatusAccepted {
		return submit, response{}, fmt.Errorf("job submit: status %d: %s", submit.status, submit.body)
	}
	var j jobs.Job
	if err := json.Unmarshal(submit.body, &j); err != nil {
		return submit, response{}, fmt.Errorf("job submit: %w", err)
	}
	done, err := c.waitJob(j.ID)
	if err != nil {
		return submit, response{}, err
	}
	if done.State != jobs.StateDone {
		return submit, response{}, fmt.Errorf("job %s ended %s: %s", j.ID, done.State, done.Error)
	}
	result, err = c.do(http.MethodGet, "/v1/jobs/"+j.ID+"/result", nil)
	return submit, result, err
}

// serveRun is one serving run in progress.
type serveRun struct {
	e   *env
	cfg serveConfig
	rep *report
	rng *rand.Rand
	d   *daemon
	c   *client

	primed   map[string][]byte // hit path → primed bytes
	pool     [][]byte          // promote bodies
	poolWant [][]byte          // promote bodies' primed responses
	poolNext int
	coldNext int64
	sizeSets []string // unused fig10 size lists, in draw order
	jobNext  int

	mu       sync.Mutex
	lat      map[string][]float64 // class → latencies in ms
	coldSeen []coldSample
	jobSeen  []jobSample
	dig      digester
}

// coldSample is one cold run's response: its hash always, its bytes only
// when it is in the sample recomputed after the loop (one in eight), so
// the retained bytes do not grow the process with the run's length.
type coldSample struct {
	cfg  experiments.RunConfig
	sum  [sha256.Size]byte
	body []byte
}

type jobSample struct {
	sizes string
	body  []byte
}

// op is one scripted request.
type op struct {
	class string
	hit   int // index into hitSet for classHit
	body  []byte
	want  []byte
	cold  experiments.RunConfig
	sizes string
}

// bootServe starts the daemon, primes it and waits until the store holds
// every primed key.
func bootServe(e *env, cfg serveConfig, rep *report, storeDir string) (*serveRun, error) {
	srv, err := server.New(server.Config{
		Options:      cfg.opts,
		StoreDir:     storeDir,
		CacheEntries: cfg.lruEntries(),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	r := &serveRun{
		e: e, cfg: cfg, rep: rep,
		rng:    rand.New(rand.NewSource(e.seed)),
		d:      startDaemon(srv, ln),
		primed: map[string][]byte{},
		lat:    map[string][]float64{},
	}
	r.c = newClient(r.d.addr, loopConns)
	if err := r.prime(); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

// freshSeed draws a run seed no earlier request of this process used.
func (r *serveRun) freshSeed() int64 {
	r.coldNext++
	return 1_000_000*(r.e.seed%1_000_000+1) + r.coldNext
}

func (r *serveRun) runConfig(bench string, seed int64, n uint64) experiments.RunConfig {
	return experiments.RunConfig{
		Benchmark:     bench,
		Seed:          seed,
		Instructions:  n,
		SubarrayBytes: r.cfg.opts.SubarrayBytes,
		DPolicy:       experiments.GatedPolicy(r.cfg.opts.ConstantThreshold, true),
		IPolicy:       experiments.Static(),
	}
}

func (r *serveRun) prime() error {
	var keys []string
	// The promote pool goes first: it is larger than the LRU, so the hit set
	// primed after it is what the LRU holds when the rounds begin.
	benches := r.cfg.opts.BenchmarkList()
	for i := 0; i < r.cfg.poolSize(); i++ {
		cfg := r.runConfig(benches[i%len(benches)], r.freshSeed(), r.cfg.promoteInstructions)
		body, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		resp, err := r.c.do(http.MethodPost, "/v1/run", body)
		if err != nil {
			return err
		}
		if resp.status != http.StatusOK {
			return fmt.Errorf("priming run %d: status %d: %s", i, resp.status, resp.body)
		}
		r.pool = append(r.pool, body)
		r.poolWant = append(r.poolWant, resp.body)
		digest, err := cfg.Digest()
		if err != nil {
			return err
		}
		keys = append(keys, "run|"+digest+"@"+r.d.srv.OptionsDigest())
	}
	// The promotions cycle through the pool in a seeded order.
	r.rng.Shuffle(len(r.pool), func(i, j int) {
		r.pool[i], r.pool[j] = r.pool[j], r.pool[i]
		r.poolWant[i], r.poolWant[j] = r.poolWant[j], r.poolWant[i]
	})
	r.sizeSets = sizeLists(r.cfg.jobSizes, r.rng)

	// Prime the job sizes' sweeps with one fig10 request over all of them.
	sizes := make([]string, len(r.cfg.jobSizes))
	for i, s := range r.cfg.jobSizes {
		sizes[i] = strconv.Itoa(s)
	}
	all := figureReq{"fig10", map[string]string{"sizes": strings.Join(sizes, ",")}}
	for _, f := range append([]figureReq{all}, r.cfg.hitSet...) {
		resp, err := r.c.do(http.MethodGet, f.path(), nil)
		if err != nil {
			return err
		}
		if resp.status != http.StatusOK {
			return fmt.Errorf("priming %s: status %d: %s", f.path(), resp.status, resp.body)
		}
		r.primed[f.path()] = resp.body
		key, err := r.d.srv.ResultKeyForFigure(f.figure, f.params)
		if err != nil {
			return err
		}
		keys = append(keys, key)
	}

	// Write-behind barrier: the daemon has no quiesce call, so poll the
	// store until it holds every primed key.
	deadline := time.Now().Add(60 * time.Second)
	for _, k := range keys {
		for !r.d.srv.Store().Has(k) {
			if time.Now().After(deadline) {
				return fmt.Errorf("store never received primed key %s", k)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// jobListLen is the number of sizes in a job's list: every job plans the
// same number of cells (2 sides × 4 sizes × the benchmarks).
const jobListLen = 4

// sizeLists returns every ordered list of jobListLen distinct sizes, in a
// seeded order: each job takes the next one, so no job's result is cached.
func sizeLists(sizes []int, rng *rand.Rand) []string {
	var out []string
	var grow func(prefix string, used map[int]bool, n int)
	grow = func(prefix string, used map[int]bool, n int) {
		if n == jobListLen {
			out = append(out, prefix)
			return
		}
		for _, s := range sizes {
			if used[s] {
				continue
			}
			used[s] = true
			next := strconv.Itoa(s)
			if prefix != "" {
				next = prefix + "," + next
			}
			grow(next, used, n+1)
			used[s] = false
		}
	}
	grow("", map[int]bool{}, 0)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// script builds one round's requests. The seed chooses the keys, run seeds
// and size list; the order is fixed: hits, promotions and cold runs are
// spread evenly over the round, so every round and every seed puts the same
// mix of requests beside each cold run, and the job comes last.
func (r *serveRun) script() ([]op, error) {
	type slot struct {
		pos float64
		o   op
	}
	var slots []slot
	at := func(i, n int) float64 { return (float64(i) + 0.5) / float64(n) }
	for i := 0; i < r.cfg.hits; i++ {
		k := i
		if i >= len(r.cfg.hitSet) {
			k = r.rng.Intn(len(r.cfg.hitSet))
		}
		slots = append(slots, slot{at(i, r.cfg.hits), op{class: classHit, hit: k}})
	}
	for i := 0; i < r.cfg.promotes; i++ {
		j := r.poolNext % len(r.pool)
		r.poolNext++
		slots = append(slots, slot{at(i, r.cfg.promotes), op{class: classPromote, body: r.pool[j], want: r.poolWant[j]}})
	}
	benches := r.cfg.opts.BenchmarkList()
	for i := 0; i < r.cfg.colds; i++ {
		cfg := r.runConfig(benches[i%len(benches)], r.freshSeed(), r.cfg.coldInstructions)
		body, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		slots = append(slots, slot{at(i, r.cfg.colds), op{class: classCold, body: body, cold: cfg}})
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].pos < slots[j].pos })
	ops := make([]op, 0, len(slots)+1)
	for _, s := range slots {
		ops = append(ops, s.o)
	}
	// The job closes the round: the other connection drains the round's
	// last requests and then waits, so the job's latency is its own, not
	// that of the cold runs it would otherwise share the CPUs with.
	if r.jobNext >= len(r.sizeSets) {
		return nil, fmt.Errorf("all %d distinct fig10 size lists used; lengthen the rounds", len(r.sizeSets))
	}
	ops = append(ops, op{class: classJobSubmit, sizes: r.sizeSets[r.jobNext]})
	r.jobNext++
	return ops, nil
}

// execute runs one request and checks its status, disposition and bytes.
func (r *serveRun) execute(o op, run string, parent *spanHandle) error {
	sp := r.e.tr.start("server.request."+o.class, run, parent)
	defer sp.end()
	start := time.Now()
	switch o.class {
	case classHit:
		f := r.cfg.hitSet[o.hit]
		resp, err := r.c.do(http.MethodGet, f.path(), nil)
		if err != nil {
			return err
		}
		r.record(o.class, start)
		r.checkResponse(o.class, f.path(), resp, http.StatusOK, r.primed[f.path()])
	case classPromote:
		resp, err := r.c.do(http.MethodPost, "/v1/run", o.body)
		if err != nil {
			return err
		}
		r.record(o.class, start)
		r.checkResponse(o.class, "/v1/run promote", resp, http.StatusOK, o.want)
	case classCold:
		resp, err := r.c.do(http.MethodPost, "/v1/run", o.body)
		if err != nil {
			return err
		}
		r.record(o.class, start)
		r.checkResponse(o.class, "/v1/run cold", resp, http.StatusOK, nil)
		cs := coldSample{cfg: o.cold, sum: sha256.Sum256(resp.body)}
		if o.cold.Seed%8 == 0 {
			cs.body = resp.body
		}
		r.mu.Lock()
		r.coldSeen = append(r.coldSeen, cs)
		r.mu.Unlock()
	case classJobSubmit:
		submit, result, err := r.c.submitJob("fig10", map[string]string{"sizes": o.sizes})
		if err != nil {
			return err
		}
		r.record("job", start)
		r.checkResponse(classJobSubmit, "job submit", submit, http.StatusAccepted, nil)
		r.checkResponse(classJobResult, "job result sizes="+o.sizes, result, http.StatusOK, nil)
		r.mu.Lock()
		r.jobSeen = append(r.jobSeen, jobSample{sizes: o.sizes, body: result.body})
		r.mu.Unlock()
	}
	return nil
}

func (r *serveRun) record(class string, start time.Time) {
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	r.mu.Lock()
	r.lat[class] = append(r.lat[class], ms)
	r.mu.Unlock()
}

// checkResponse checks status and disposition, and bytes when want is set.
func (r *serveRun) checkResponse(class, label string, resp response, status int, want []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if resp.status != status {
		r.rep.failf("%s: status %d, want %d: %.200s", label, resp.status, status, resp.body)
		return
	}
	if !dispositionOK(class, resp.disposition) {
		r.rep.failf("%s: disposition %q is wrong for a %s request", label, resp.disposition, class)
	}
	if want != nil {
		checkBytes(r.rep, label, resp.body, want)
	}
}

// round runs one scripted round over the closed loop's connections.
func (r *serveRun) round(i int) (time.Duration, error) {
	ops, err := r.script()
	if err != nil {
		return 0, err
	}
	run := fmt.Sprintf("round-%d", i)
	root := r.e.tr.start("serve.round", run, nil)
	defer root.end()
	var next atomic.Int64
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < loopConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(ops) {
					return
				}
				errs[k] = r.execute(ops[k], run, root)
			}
		}()
	}
	wg.Wait()
	took := time.Since(start)
	for _, err := range errs {
		r.rep.op(err)
	}
	return took, nil
}

// loop runs the rounds: fixedRounds when set, else for the run's seconds.
func (r *serveRun) loop() ([]time.Duration, error) {
	if r.cfg.fixedRounds > 0 {
		var ds []time.Duration
		for i := 0; i < r.cfg.fixedRounds; i++ {
			d, err := r.round(i)
			if err != nil {
				return nil, err
			}
			ds = append(ds, d)
		}
		return ds, nil
	}
	return rounds(r.e.seconds, r.round)
}

// verifyOutputs recomputes a sample of cold runs with experiments.Run and
// every job's figure with a separate Lab, and compares bytes. The digest
// covers what the seed alone determines: the primed figures, the promote
// pool, and the first round's cold runs and job (later rounds' count
// depends on the host's speed).
func (r *serveRun) verifyOutputs() error {
	for _, f := range r.cfg.hitSet {
		r.dig.addBytes(f.path(), r.primed[f.path()])
	}
	for i, b := range r.poolWant {
		r.dig.addBytes(fmt.Sprintf("pool %d", i), b)
	}
	sort.Slice(r.coldSeen, func(i, j int) bool { return r.coldSeen[i].cfg.Seed < r.coldSeen[j].cfg.Seed })
	for i, s := range r.coldSeen {
		if i < r.cfg.colds {
			r.dig.addBytes(fmt.Sprintf("cold seed %d", s.cfg.Seed), s.sum[:])
		}
		if s.body == nil {
			continue
		}
		o, err := experiments.Run(s.cfg)
		if err != nil {
			return err
		}
		want, err := verify.MarshalGolden(o)
		if err != nil {
			return err
		}
		checkBytes(r.rep, fmt.Sprintf("cold /v1/run seed %d vs experiments.Run", s.cfg.Seed), s.body, want)
	}
	lab, err := experiments.NewLab(r.cfg.opts)
	if err != nil {
		return err
	}
	for _, s := range r.jobSeen {
		var sizes []int
		for _, f := range strings.Split(s.sizes, ",") {
			n, err := strconv.Atoi(f)
			if err != nil {
				return err
			}
			sizes = append(sizes, n)
		}
		f10, err := lab.Figure10(sizes)
		if err != nil {
			return err
		}
		want, err := verify.MarshalGolden(f10)
		if err != nil {
			return err
		}
		checkBytes(r.rep, "fig10 job sizes="+s.sizes+" vs a separate Lab", s.body, want)
		if s.sizes == r.sizeSets[0] {
			r.dig.addBytes("job "+s.sizes, s.body)
		}
	}
	return nil
}

// classLatencies prints each request class's latency quartiles on standard
// error and returns the jobs' median in ms.
func (r *serveRun) classLatencies() float64 {
	for _, class := range []string{classHit, classPromote, classCold, "job"} {
		xs := r.lat[class]
		fmt.Fprintf(os.Stderr, "serving %-8s %6d samples, ms p25 %.4f p50 %.4f p75 %.4f p99 %.4f\n", class, len(xs),
			quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 0.99))
	}
	return median(r.lat["job"])
}

func (r *serveRun) stop() error {
	r.c.close()
	return r.d.stop()
}

// runServeMixed is the serve-mixed workload.
func runServeMixed(e *env) (*report, error) {
	rep := newReport()
	cfg := serveMixedConfig(e.seed)
	if e.traced {
		cfg.fixedRounds = 20
	}
	r, err := bootServe(e, cfg, rep, e.scratch+"/serve-store")
	if err != nil {
		return nil, err
	}
	rep.setupDone()
	before := r.d.srv.Metrics()
	ds, err := r.loop()
	if err != nil {
		return nil, errors.Join(err, r.stop())
	}
	jobMS := r.classLatencies()
	if e.traced {
		rep.layer("traced.wall_s", median(seconds(ds)))
		rep.layer("experiments.runs", float64(r.d.srv.Metrics().RunsExecuted-before.RunsExecuted))
		rep.layer("jobs.job_p50_ms", jobMS)
		// The cold runs' configs, and their static-policy twins.
		var sample []experiments.RunConfig
		for _, s := range r.coldSeen[:min(2, len(r.coldSeen))] {
			static := s.cfg
			static.DPolicy = experiments.Static()
			sample = append(sample, s.cfg, static)
		}
		payloads := append([][]byte(nil), r.poolWant...)
		for _, b := range r.primed {
			payloads = append(payloads, b)
		}
		err = measureLayers(e, rep, cfg.opts, &layerInputs{serve: r, before: before, configs: sample, payloads: payloads})
	} else {
		err = recordPeak(rep)
		rep.e2e("wall_s", median(seconds(ds)))
	}
	if err == nil {
		err = r.verifyOutputs()
	}
	rep.digest = r.dig.sum()
	if serr := r.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}
