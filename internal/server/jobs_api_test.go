package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nanocache/internal/experiments"
	"nanocache/internal/jobs"
	"nanocache/internal/verify"
)

// tinyStoreConfig is tinyOptions plus a durable store rooted in a temp dir.
func tinyStoreConfig(t *testing.T, dir string) Config {
	t.Helper()
	return Config{Options: tinyOptions(), StoreDir: dir}
}

// serveHTTP wraps a manually-managed Server in an httptest listener (tests
// that restart servers close both halves themselves).
func serveHTTP(s *Server) *httptest.Server { return httptest.NewServer(s.Handler()) }

// twoBenchOptions gives fig8 two sweep points, so a job can be interrupted
// between checkpoints.
func twoBenchOptions() experiments.Options {
	o := tinyOptions()
	o.Benchmarks = []string{"gcc", "mcf"}
	return o
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// waitJobHTTP polls GET /v1/jobs/{id} until the job is terminal.
func waitJobHTTP(t *testing.T, base, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, _, body := get(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job status: %d %s", code, body)
		}
		var j jobs.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatalf("job snapshot: %v (%s)", err, body)
		}
		if j.State.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobLifecycleFig8 is the async/sync equivalence acceptance: a fig8 job
// must produce a payload byte-identical to the synchronous endpoint, publish
// it under the same cache key (the next sync GET is a hit), and serve it
// from /result.
func TestJobLifecycleFig8(t *testing.T) {
	_, ts := newTestServer(t, tinyStoreConfig(t, t.TempDir()))
	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"figure":"fig8","params":{"side":"d"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var j jobs.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.TotalPoints != 1 { // tinyOptions has one benchmark
		t.Fatalf("submitted job %+v, want 1 sweep point", j)
	}
	done := waitJobHTTP(t, ts.URL, j.ID)
	if done.State != jobs.StateDone || done.Progress != 1 {
		t.Fatalf("job finished as %+v", done)
	}
	codeR, _, result := get(t, ts.URL+"/v1/jobs/"+j.ID+"/result")
	if codeR != http.StatusOK {
		t.Fatalf("result: %d %s", codeR, result)
	}
	// The synchronous endpoint must now be a pure cache hit with identical
	// bytes: async execution is a scheduling decision, not a different
	// result.
	codeS, h, sync := get(t, ts.URL+"/v1/figures/fig8?side=d")
	if codeS != http.StatusOK {
		t.Fatalf("sync fig8: %d", codeS)
	}
	if disp := h.Get("X-Nanocache"); disp != "hit" {
		t.Errorf("sync fig8 after job: disposition %q, want hit (job published the key)", disp)
	}
	if !bytes.Equal(result, sync) {
		t.Error("job result differs from synchronous payload")
	}
	if diffs, err := verify.CompareGolden(result, sync); err != nil || len(diffs) != 0 {
		t.Errorf("CompareGolden: %v %v", diffs, err)
	}
	// List shows the done job and full state counts.
	_, _, list := get(t, ts.URL+"/v1/jobs")
	var idx struct {
		Jobs   []jobs.Job     `json:"jobs"`
		Counts map[string]int `json:"counts"`
	}
	if err := json.Unmarshal(list, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Jobs) != 1 || idx.Counts["done"] != 1 || len(idx.Counts) != 5 {
		t.Errorf("job list %s", list)
	}
}

// TestJobRunKind: the "run" job kind computes exactly what POST /v1/run
// computes and publishes under the same key.
func TestJobRunKind(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: tinyOptions()})
	cfg := experiments.RunConfig{Benchmark: "gcc", Seed: 2, Instructions: 1500}
	raw, _ := json.Marshal(cfg)
	code, body := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"run":%s}`, raw))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var j jobs.Job
	json.Unmarshal(body, &j)
	done := waitJobHTTP(t, ts.URL, j.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("run job: %+v", done)
	}
	_, _, result := get(t, ts.URL+"/v1/jobs/"+j.ID+"/result")
	codeS, h, sync := postJSONHeaders(t, ts.URL+"/v1/run", string(raw))
	if codeS != http.StatusOK || h.Get("X-Nanocache") != "hit" {
		t.Fatalf("sync run after job: %d disposition %q, want 200 hit", codeS, h.Get("X-Nanocache"))
	}
	if !bytes.Equal(result, sync) {
		t.Error("run job result differs from POST /v1/run payload")
	}
}

func postJSONHeaders(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b
}

// TestJobEventsSSE consumes the progress stream and demands a terminal
// snapshot as the last event.
func TestJobEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: tinyOptions()})
	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"figure":"fig3"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var j jobs.Job
	json.Unmarshal(body, &j)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var last jobs.Job
	events := 0
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		events++
		if err := json.Unmarshal([]byte(data), &last); err != nil {
			t.Fatalf("event %d: %v (%s)", events, err, data)
		}
		if last.State.Terminal() {
			break
		}
	}
	if events == 0 || last.State != jobs.StateDone {
		t.Fatalf("saw %d events, final state %q; want ≥1 ending done", events, last.State)
	}
	if last.Progress != 1 {
		t.Errorf("terminal event progress %v, want 1", last.Progress)
	}
}

// TestJobCancelHTTP: cancelling a long-running job lands it in cancelled,
// and its /result answers 409.
func TestJobCancelHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: tinyOptions()})
	run := `{"run":{"Benchmark":"gcc","Seed":9,"Instructions":2000000000}}`
	code, body := postJSON(t, ts.URL+"/v1/jobs", run)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var j jobs.Job
	json.Unmarshal(body, &j)
	// Let it actually start before cancelling.
	time.Sleep(50 * time.Millisecond)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	done := waitJobHTTP(t, ts.URL, j.ID)
	if done.State != jobs.StateCancelled {
		t.Fatalf("after cancel: %+v", done)
	}
	codeR, _, resBody := get(t, ts.URL+"/v1/jobs/"+j.ID+"/result")
	if codeR != http.StatusConflict {
		t.Errorf("result of cancelled job: %d %s, want 409", codeR, resBody)
	}
}

// TestFig10SizeValidation table-drives Figure 10's subarray sizes through
// both entry points that canonicalize them. A size the L1 cannot be built
// with is a 400 on the synchronous GET and on job submission alike: never a
// 500 after taking a cold admission slot, nor a 202 for a job that fails
// after burning its retries. The geometry's two extremes are served by both.
func TestFig10SizeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: tinyOptions()})
	cases := []struct {
		sizes string
		ok    bool
	}{
		{"1000", false},
		{"3", false},
		{"65536", false},
		{"16", false},
		{"96", false},
		{"1024,48", false},
		{"32", true},
		{"32768", true},
	}
	for _, c := range cases {
		t.Run(c.sizes, func(t *testing.T) {
			wantGet, wantJob := http.StatusBadRequest, http.StatusBadRequest
			if c.ok {
				wantGet, wantJob = http.StatusOK, http.StatusAccepted
			}
			code, _, body := get(t, ts.URL+"/v1/figures/fig10?sizes="+c.sizes)
			if code != wantGet {
				t.Errorf("GET: status %d, want %d (body %s)", code, wantGet, body)
			}
			code, body = postJSON(t, ts.URL+"/v1/jobs", `{"figure":"fig10","params":{"sizes":"`+c.sizes+`"}}`)
			if code != wantJob {
				t.Fatalf("POST /v1/jobs: status %d, want %d (body %s)", code, wantJob, body)
			}
			if !c.ok {
				return
			}
			var j jobs.Job
			if err := json.Unmarshal(body, &j); err != nil {
				t.Fatal(err)
			}
			if done := waitJobHTTP(t, ts.URL, j.ID); done.State != jobs.StateDone {
				t.Errorf("job ended %s (%s), want done", done.State, done.Error)
			}
		})
	}
}

// TestJobBadRequests table-drives the job API failure surface.
func TestJobBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: tinyOptions()})
	del := func(path string) func(t *testing.T) (int, []byte) {
		return func(t *testing.T) (int, []byte) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, b
		}
	}
	cases := []struct {
		name string
		do   func(t *testing.T) (int, []byte)
		want int
	}{
		{"empty body", func(t *testing.T) (int, []byte) { return postJSON(t, ts.URL+"/v1/jobs", `{}`) }, http.StatusBadRequest},
		{"both kinds", func(t *testing.T) (int, []byte) {
			return postJSON(t, ts.URL+"/v1/jobs", `{"figure":"fig3","run":{}}`)
		}, http.StatusBadRequest},
		{"unknown figure", func(t *testing.T) (int, []byte) {
			return postJSON(t, ts.URL+"/v1/jobs", `{"figure":"fig99"}`)
		}, http.StatusBadRequest},
		{"bad figure param", func(t *testing.T) (int, []byte) {
			return postJSON(t, ts.URL+"/v1/jobs", `{"figure":"fig8","params":{"side":"zzz"}}`)
		}, http.StatusBadRequest},
		{"unknown json field", func(t *testing.T) (int, []byte) {
			return postJSON(t, ts.URL+"/v1/jobs", `{"figures":"fig3"}`)
		}, http.StatusBadRequest},
		{"bad run config", func(t *testing.T) (int, []byte) {
			return postJSON(t, ts.URL+"/v1/jobs", `{"run":{"Bogus":1}}`)
		}, http.StatusBadRequest},
		{"status unknown id", func(t *testing.T) (int, []byte) {
			code, _, b := get(t, ts.URL+"/v1/jobs/j000000000000")
			return code, b
		}, http.StatusNotFound},
		{"cancel unknown id", del("/v1/jobs/j000000000000"), http.StatusNotFound},
		{"events unknown id", func(t *testing.T) (int, []byte) {
			code, _, b := get(t, ts.URL+"/v1/jobs/j000000000000/events")
			return code, b
		}, http.StatusNotFound},
		{"result unknown id", func(t *testing.T) (int, []byte) {
			code, _, b := get(t, ts.URL+"/v1/jobs/j000000000000/result")
			return code, b
		}, http.StatusNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := c.do(t)
			if code != c.want {
				t.Errorf("status %d, want %d (body %s)", code, c.want, body)
			}
		})
	}
}

// TestStoreRestartPersistence is the durable-serving acceptance: populate
// fig8 over HTTP, restart the server over the same store directory, and
// demand the first post-restart response comes from disk (X-Nanocache:
// store), byte-identical, with zero simulator work; the second is an LRU
// hit.
func TestStoreRestartPersistence(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newTestServer(t, tinyStoreConfig(t, dir))
	code, _, body1 := get(t, ts1.URL+"/v1/figures/fig8")
	if code != http.StatusOK {
		t.Fatalf("first fig8: %d %s", code, body1)
	}
	// The write-behind happens after the response; close flushes it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts1.Close()
	if err := s1.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	before := experiments.RunsExecuted()
	s2, ts2 := newTestServer(t, tinyStoreConfig(t, dir))
	code2, h2, body2 := get(t, ts2.URL+"/v1/figures/fig8")
	if code2 != http.StatusOK {
		t.Fatalf("post-restart fig8: %d", code2)
	}
	if disp := h2.Get("X-Nanocache"); disp != "store" {
		t.Errorf("post-restart disposition %q, want store", disp)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("restarted server served different bytes")
	}
	if diffs, err := verify.CompareGolden(body2, body1); err != nil || len(diffs) != 0 {
		t.Errorf("CompareGolden across restart: %v %v", diffs, err)
	}
	if after := experiments.RunsExecuted(); after != before {
		t.Errorf("restart warm-hit executed %d simulator runs, want 0", after-before)
	}
	// Promotion: the store hit warmed the LRU, so the next one is "hit".
	_, h3, body3 := get(t, ts2.URL+"/v1/figures/fig8")
	if h3.Get("X-Nanocache") != "hit" || !bytes.Equal(body1, body3) {
		t.Errorf("promoted fetch: disposition %q", h3.Get("X-Nanocache"))
	}
	m := s2.Metrics()
	if m.StoreHits != 1 {
		t.Errorf("StoreHits = %d, want 1", m.StoreHits)
	}
	if m.StoreEntries == 0 {
		t.Errorf("StoreEntries = 0 after restart, want the persisted records")
	}
}

// TestStoreCorruptionServesRecompute: a truncated store file must cost one
// recompute and a quarantine, never a crash or a wrong payload.
func TestStoreCorruptionServesRecompute(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, tinyStoreConfig(t, dir))
	code, _, body1 := get(t, ts1.URL+"/v1/figures/fig2")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts1.Close()
	s1.Close(ctx)

	// Truncate every stored object.
	objects := 0
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".ncr" {
			return err
		}
		objects++
		return os.Truncate(path, 10)
	})
	if err != nil || objects == 0 {
		t.Fatalf("truncating store: %v (%d objects)", err, objects)
	}

	s2, ts2 := newTestServer(t, tinyStoreConfig(t, dir))
	code2, h2, body2 := get(t, ts2.URL+"/v1/figures/fig2")
	if code2 != http.StatusOK {
		t.Fatalf("post-corruption fig2: %d", code2)
	}
	if disp := h2.Get("X-Nanocache"); disp != "miss" {
		t.Errorf("corrupted store served disposition %q, want miss (recompute)", disp)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("recomputed payload differs from the original")
	}
	if m := s2.Metrics(); m.StoreQuarantined == 0 {
		t.Errorf("no quarantined records counted after corruption: %+v", m)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(entries) == 0 {
		t.Errorf("quarantine dir empty (%v), want the damaged files", err)
	}
}

// TestJobResumeAcrossRestart is the tentpole acceptance: interrupt a fig8
// sweep job between its two benchmark checkpoints by draining the server,
// boot a fresh server over the same store, and demand the job completes
// without re-running the checkpointed benchmark — with a final payload
// byte-identical to the synchronous endpoint's.
func TestJobResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Options: twoBenchOptions(), StoreDir: dir}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := serveHTTP(s1)
	firstPoint := make(chan struct{})
	var signalled bool
	s1.Jobs().SetPointHook(func(ctx context.Context, j jobs.Job) {
		if !signalled {
			signalled = true
			close(firstPoint)
		}
		<-ctx.Done() // hold the job here until the drain interrupts it
	})
	code, body := postJSON(t, ts1.URL+"/v1/jobs", `{"figure":"fig8"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var j jobs.Job
	json.Unmarshal(body, &j)
	if j.TotalPoints != 2 {
		t.Fatalf("fig8 job has %d points, want 2 (one per benchmark)", j.TotalPoints)
	}
	<-firstPoint
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts1.Close()
	if err := s1.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Phase 2: fresh server, same store. New(...) runs jobs.Resume.
	before := experiments.RunsExecuted()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := serveHTTP(s2)
	done := waitJobHTTP(t, ts2.URL, j.ID)
	if done.State != jobs.StateDone || done.Attempts < 2 {
		t.Fatalf("resumed job: %+v, want done on attempt >= 2", done)
	}
	resumedRuns := experiments.RunsExecuted() - before
	// One Figure8Cell on the tiny lab costs a handful of architectural runs
	// per benchmark; the checkpointed benchmark must contribute zero. With
	// two thresholds the remaining benchmark costs <= 3 runs (gated sweep +
	// baselines); re-running both would at least double that.
	if resumedRuns > 3 {
		t.Errorf("resume executed %d simulator runs, want <= 3 (checkpointed benchmark re-ran?)", resumedRuns)
	}
	_, _, result := get(t, ts2.URL+"/v1/jobs/"+j.ID+"/result")
	codeS, _, sync := get(t, ts2.URL+"/v1/figures/fig8")
	if codeS != http.StatusOK {
		t.Fatal(codeS)
	}
	if !bytes.Equal(result, sync) {
		t.Error("resumed job result differs from synchronous fig8")
	}
	if diffs, err := verify.CompareGolden(result, sync); err != nil || len(diffs) != 0 {
		t.Errorf("CompareGolden: %v %v", diffs, err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	ts2.Close()
	s2.Close(ctx2)
}

// TestJobMetricsRendering pins the new exposition lines (store tier, job
// gauges, queue-wait quantiles).
func TestJobMetricsRendering(t *testing.T) {
	_, ts := newTestServer(t, tinyStoreConfig(t, t.TempDir()))
	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"figure":"fig2"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var j jobs.Job
	json.Unmarshal(body, &j)
	waitJobHTTP(t, ts.URL, j.ID)
	_, _, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"nanocached_store_hits_total",
		"nanocached_store_misses_total",
		"nanocached_store_puts_total",
		"nanocached_store_evictions_total",
		"nanocached_store_quarantined_total",
		"nanocached_store_entries",
		"nanocached_store_bytes",
		"nanocached_jobs_submitted_total 1",
		`nanocached_jobs{state="done"} 1`,
		`nanocached_jobs{state="queued"} 0`,
		`nanocached_jobs{state="running"} 0`,
		`nanocached_jobs{state="failed"} 0`,
		`nanocached_jobs{state="cancelled"} 0`,
		"nanocached_job_queue_wait_us_count 1",
		`nanocached_job_queue_wait_us{quantile="0.5"}`,
		`nanocached_job_queue_wait_us{quantile="0.99"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobsRefusedWhileDraining: POST /v1/jobs during drain answers 503.
func TestJobsRefusedWhileDraining(t *testing.T) {
	s, err := New(Config{Options: tinyOptions()})
	if err != nil {
		t.Fatal(err)
	}
	ts := serveHTTP(s)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"figure":"fig2"}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d %s, want 503", code, body)
	}
}

// TestJobSubmitQueueFullSheds pins the submission-shedding contract: with
// the single job worker held and a 1-deep queue, the next POST /v1/jobs must
// answer 429 with the same Retry-After + "X-Nanocache: shed" shape admission
// shedding uses — submitters back off the way load generators already know.
func TestJobSubmitQueueFullSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Options:    tinyOptions(),
		JobQueue:   1,
		RetryAfter: 2 * time.Second,
	})
	release := make(chan struct{})
	s.Jobs().SetPointHook(func(ctx context.Context, _ jobs.Job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	})

	// Occupy the worker...
	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"figure":"fig8","params":{"side":"d"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", code, body)
	}
	var first jobs.Job
	json.Unmarshal(body, &first)
	waitJobState(t, ts.URL, first.ID, jobs.StateRunning)

	// ...fill the queue...
	code, body = postJSON(t, ts.URL+"/v1/jobs", `{"figure":"fig8","params":{"side":"i"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", code, body)
	}
	var second jobs.Job
	json.Unmarshal(body, &second)

	// ...and overflow it.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"figure":"fig2"}`))
	if err != nil {
		t.Fatal(err)
	}
	overflow, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s, want 429", resp.StatusCode, overflow)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if got := resp.Header.Get("X-Nanocache"); got != "shed" {
		t.Errorf("X-Nanocache = %q, want shed", got)
	}
	if !strings.Contains(string(overflow), "queue full") {
		t.Errorf("overflow body %s, want a queue-full message", overflow)
	}

	// Releasing the worker drains the queue: both accepted jobs complete.
	close(release)
	for _, id := range []string{first.ID, second.ID} {
		if done := waitJobHTTP(t, ts.URL, id); done.State != jobs.StateDone {
			t.Errorf("job %s finished as %s, want done", id, done.State)
		}
	}
}

// waitJobState polls until the job reaches the wanted (non-terminal) state.
func waitJobState(t *testing.T, base, id string, want jobs.State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, body := get(t, base+"/v1/jobs/"+id)
		var j jobs.Job
		if err := json.Unmarshal(body, &j); err == nil && j.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (last: %s)", id, want, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
