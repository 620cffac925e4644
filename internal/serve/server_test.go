package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/plan"
	"mosaic/internal/pmu"
	"mosaic/internal/serve/registry"
	"mosaic/internal/sim"
	"mosaic/internal/workloads"
)

// trainedRegistry builds an in-memory registry with one synthetic pair.
func trainedRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	reg, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	samples := []pmu.Sample{
		{Layout: "4KB", H: 9e5, M: 4e5, C: 2.4e7, R: 9.1e7},
		{Layout: "2MB", H: 1e5, M: 2e4, C: 1.1e6, R: 6.6e7},
	}
	for i := 0; i < 16; i++ {
		f := float64(i) / 15
		samples = append(samples, pmu.Sample{
			Layout: fmt.Sprintf("grow-%d", i),
			H:      1e5 + f*8e5,
			M:      2e4 + f*3.8e5,
			C:      1.1e6 + f*2.29e7 + f*f*1e6,
			R:      6.6e7 + f*2.4e7 + f*f*1.1e6,
		})
	}
	ds := &experiment.Dataset{
		Workload: "gups/8GB", Platform: "SandyBridge",
		Samples:  samples,
		Sample1G: pmu.Sample{Layout: "1GB", H: 1e4, M: 5e3, C: 3e5, R: 6.5e7},
	}
	if err := reg.Train(ds, nil); err != nil {
		t.Fatal(err)
	}
	return reg
}

// stubExecutor returns canned results after an optional delay, honoring
// cancellation.
func stubExecutor(delay time.Duration) JobExecutor {
	return func(ctx context.Context, spec JobSpec, onProgress func(sim.Progress), _ func(plan.Step)) (*JobResult, []StageTimeView, error) {
		if onProgress != nil {
			onProgress(sim.Progress{Stage: "replay", Done: 1, Total: 2})
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		if onProgress != nil {
			onProgress(sim.Progress{Stage: "replay", Done: 2, Total: 2})
		}
		return &JobResult{
			Workload: spec.Workload, Platform: spec.Platform,
			Samples: []pmu.Sample{{Layout: "4KB", H: 1, M: 2, C: 3, R: 4}},
		}, []StageTimeView{{Stage: "replay", Seconds: delay.Seconds(), Count: 2}}, nil
	}
}

func newTestServer(t testing.TB, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = trainedRegistry(t)
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t testing.TB, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t testing.TB, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// TestPredictEndpoint: the happy path plus the error-mapping table.
func TestPredictEndpoint(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})

	resp, body := postJSON(t, ts.URL+"/v1/predict",
		`{"workload":"gups/8GB","platform":"SandyBridge","h":9e5,"m":4e5,"c":2.4e7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pred registry.Prediction
	if err := json.Unmarshal(body, &pred); err != nil {
		t.Fatal(err)
	}
	if pred.Model != "mosmodel" || pred.Runtime <= 0 || !(pred.Lo <= pred.Runtime && pred.Runtime <= pred.Hi) {
		t.Errorf("prediction %+v", pred)
	}

	// Layout-name input.
	resp, body = postJSON(t, ts.URL+"/v1/predict",
		`{"workload":"gups/8GB","platform":"SandyBridge","model":"poly1","layout":"2MB"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("layout predict: %d %s", resp.StatusCode, body)
	}

	cases := []struct {
		body string
		want int
	}{
		{`{"workload":"nope","platform":"SandyBridge","layout":"4KB"}`, 404},
		{`{"workload":"gups/8GB","platform":"SandyBridge","model":"nonesuch","layout":"4KB"}`, 404},
		{`{"workload":"gups/8GB","platform":"SandyBridge","layout":"512KB"}`, 404},
		{`{"workload":"gups/8GB","platform":"SandyBridge"}`, 400},                                  // no inputs
		{`{"workload":"gups/8GB","platform":"SandyBridge","h":1}`, 400},                            // partial inputs
		{`{"workload":"gups/8GB","platform":"SandyBridge","h":1,"m":2,"c":3,"layout":"4KB"}`, 400}, // both
		{`{"platform":"SandyBridge","layout":"4KB"}`, 400},                                         // no workload
		{`{"workload":"gups/8GB","platform":"SandyBridge","h":-1,"m":2,"c":3}`, 400},               // negative
		{`{"workload":"gups/8GB","platform":"SandyBridge","h":1e999,"m":2,"c":3}`, 400},            // overflows to Inf
		{`{"workload":"gups/8GB","platform":"SandyBridge","bogus":true,"layout":"4KB"}`, 400},      // unknown field
		{`not json`, 400},
		{`{"workload":"gups/8GB","platform":"SandyBridge","layout":"4KB"} extra`, 400}, // trailing data
		{`{"workload":"gups/8GB","platform":"SandyBridge","layout":"4KB"}}`, 400},      // trailing '}'
		{`{"workload":"gups/8GB","platform":"SandyBridge","layout":"4KB"}]`, 400},      // trailing ']'
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/predict", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("predict %s: got %d (%s), want %d", c.body, resp.StatusCode, body, c.want)
		}
	}
}

// TestPredictNonFinite: finite inputs far outside the training samples can
// drive a model to ±Inf, which JSON cannot carry. The answer is a 400 error
// envelope, never a 200 with an empty body; and a response that fails to
// encode becomes a 500 envelope before any status is sent.
func TestPredictNonFinite(t *testing.T) {
	s, ts := newTestServer(t, ServerConfig{})
	resp, body := postJSON(t, ts.URL+"/v1/predict",
		`{"workload":"gups/8GB","platform":"SandyBridge","model":"basu","h":1,"m":1e308,"c":1}`)
	var env apiError
	if err := json.Unmarshal(body, &env); err != nil || resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(env.Error, "not finite") {
		t.Errorf("basu at m=1e308: %d %q (%v), want a 400 envelope naming the non-finite prediction",
			resp.StatusCode, body, err)
	}

	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, math.Inf(1))
	env = apiError{}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError || env.Error == "" {
		t.Errorf("writeJSON(+Inf): %d %q (%v), want a 500 envelope", rec.Code, rec.Body.Bytes(), err)
	}
}

// TestJobLifecycleE2E: submit → poll → result over real HTTP.
func TestJobLifecycleE2E(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{Executor: stubExecutor(20 * time.Millisecond), JobWorkers: 1, JobQueueDepth: 4})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"workload":"gups/8GB","platform":"SandyBridge","proto":"quick"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || (job.State != JobQueued && job.State != JobRunning) {
		t.Fatalf("submitted job %+v", job)
	}

	// Poll to done.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var polled Job
		if resp := getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &polled); resp.StatusCode != 200 {
			t.Fatalf("poll: %d", resp.StatusCode)
		}
		if polled.State == JobDone {
			if polled.Progress.Percent != 100 {
				t.Errorf("done job progress %+v", polled.Progress)
			}
			if len(polled.StageTimes) == 0 {
				t.Error("done job carries no stage times")
			}
			break
		}
		if polled.State == JobFailed || polled.State == JobCanceled {
			t.Fatalf("job reached %s: %s", polled.State, polled.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", polled.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var res JobResult
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/result", &res); resp.StatusCode != 200 {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	if res.Workload != "gups/8GB" || len(res.Samples) != 1 {
		t.Errorf("result %+v", res)
	}

	// Identical spec → cache hit, completes instantly with 200.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", `{"workload":"gups/8GB","platform":"SandyBridge","proto":"quick"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit: %d %s", resp.StatusCode, body)
	}
	var cached Job
	if err := json.Unmarshal(body, &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.CacheHit || cached.State != JobDone {
		t.Errorf("second submit not a cache hit: %+v", cached)
	}

	// Unknown job → 404; unfinished result → covered by conflict test below.
	if resp := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); resp.StatusCode != 404 {
		t.Errorf("unknown job: %d", resp.StatusCode)
	}
}

// TestJobResultConflict: polling the result of an unfinished job is 409.
func TestJobResultConflict(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{Executor: stubExecutor(2 * time.Second), JobWorkers: 1, JobQueueDepth: 4})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"workload":"w","platform":"p"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("unfinished result: %d, want 409", resp.StatusCode)
	}
	// Cancel so cleanup doesn't wait out the delay.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != 200 {
		t.Fatalf("cancel: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
}

// TestQueueOverflow: a full queue answers 429 with Retry-After; capacity
// opening up lets later submissions through.
func TestQueueOverflow(t *testing.T) {
	block := make(chan struct{})
	var exec JobExecutor = func(ctx context.Context, spec JobSpec, _ func(sim.Progress), _ func(plan.Step)) (*JobResult, []StageTimeView, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &JobResult{Workload: spec.Workload, Platform: spec.Platform}, nil, nil
	}
	_, ts := newTestServer(t, ServerConfig{Executor: exec, JobWorkers: 1, JobQueueDepth: 2, RetryAfter: 7 * time.Second})

	// Distinct specs defeat the result cache. 1 running + 2 queued fit.
	okCount, fullCount := 0, 0
	var retryAfter string
	for i := 0; i < 8; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"workload":"w%d","platform":"p"}`, i))
		switch resp.StatusCode {
		case http.StatusAccepted:
			okCount++
		case http.StatusTooManyRequests:
			fullCount++
			retryAfter = resp.Header.Get("Retry-After")
		default:
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
	}
	if fullCount == 0 {
		t.Fatal("queue never overflowed")
	}
	if okCount < 3 {
		t.Errorf("only %d submissions accepted before overflow, want ≥3", okCount)
	}
	if retryAfter != "7" {
		t.Errorf("Retry-After = %q, want \"7\"", retryAfter)
	}
	close(block) // release the worker; cleanup drains the rest
}

// TestDrain: shutdown finishes running jobs, cancels queued ones, and
// Drain returns nil within the deadline.
func TestDrain(t *testing.T) {
	started := make(chan struct{}, 8)
	var finished atomic.Int64
	var exec JobExecutor = func(ctx context.Context, spec JobSpec, _ func(sim.Progress), _ func(plan.Step)) (*JobResult, []StageTimeView, error) {
		started <- struct{}{}
		time.Sleep(50 * time.Millisecond)
		finished.Add(1)
		return &JobResult{Workload: spec.Workload, Platform: spec.Platform}, nil, nil
	}
	reg := trainedRegistry(t)
	s := NewServer(ServerConfig{Registry: reg, Executor: exec, JobWorkers: 1, JobQueueDepth: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// One job starts running; two more sit in the queue.
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"workload":"w%d","platform":"p"}`, i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if finished.Load() < 1 {
		t.Error("running job was not allowed to finish")
	}
	// Readiness flipped before the drain.
	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after shutdown: %d, want 503", resp.StatusCode)
	}
	// Queued jobs reached a terminal canceled state.
	canceled := 0
	for _, j := range s.Jobs().List() {
		if j.State == JobCanceled {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("no queued job was marked canceled by the drain")
	}
}

// TestCancelRunningJob: DELETE on a running job propagates context
// cancellation into the executor and the job reaches canceled.
func TestCancelRunningJob(t *testing.T) {
	entered := make(chan struct{})
	var exec JobExecutor = func(ctx context.Context, spec JobSpec, _ func(sim.Progress), _ func(plan.Step)) (*JobResult, []StageTimeView, error) {
		close(entered)
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	s, ts := newTestServer(t, ServerConfig{Executor: exec, JobWorkers: 1, JobQueueDepth: 4})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"workload":"w","platform":"p"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	<-entered
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil || cresp.StatusCode != 200 {
		t.Fatalf("cancel: %v %v", err, cresp.StatusCode)
	}
	cresp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := s.Jobs().Get(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", got.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHealthMetricsEndpoints: /healthz, /readyz, and the /metrics catalog.
func TestHealthMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{
		Executor: stubExecutor(0),
		PoolIdle: func() int { return 3 },
	})
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != 200 {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	var ready map[string]any
	if resp := getJSON(t, ts.URL+"/readyz", &ready); resp.StatusCode != 200 {
		t.Errorf("readyz: %d", resp.StatusCode)
	}
	// Generate some traffic so counters are nonzero.
	postJSON(t, ts.URL+"/v1/predict", `{"workload":"gups/8GB","platform":"SandyBridge","layout":"4KB"}`)
	postJSON(t, ts.URL+"/v1/jobs", `{"workload":"w","platform":"p"}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"mosd_http_requests_total",
		"mosd_http_request_duration_seconds_bucket",
		"mosd_predict_duration_seconds_bucket",
		"mosd_job_queue_depth",
		"mosd_jobs_running",
		"mosd_job_cache_hits_total",
		"mosd_job_cache_lookups_total",
		"mosd_sim_pool_idle_engines 3",
		"mosd_registry_pairs 1",
		"mosd_predict_batches_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPredictLoad is the acceptance load test: 64 concurrent clients
// hammering /v1/predict must see zero drops and a p99 under 50ms.
func TestPredictLoad(t *testing.T) {
	s, ts := newTestServer(t, ServerConfig{})
	const clients = 64
	const perClient = 50
	body := `{"workload":"gups/8GB","platform":"SandyBridge","h":9e5,"m":4e5,"c":2.4e7}`

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	var wg sync.WaitGroup
	var drops, non200 atomic.Int64
	latencies := make([][]time.Duration, clients)
	for i := 0; i < clients; i++ {
		latencies[i] = make([]time.Duration, 0, perClient)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				start := time.Now()
				resp, err := client.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
				if err != nil {
					drops.Add(1)
					continue
				}
				var pred registry.Prediction
				if resp.StatusCode != 200 {
					non200.Add(1)
				} else if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil || pred.Runtime <= 0 {
					non200.Add(1)
				}
				resp.Body.Close()
				latencies[i] = append(latencies[i], time.Since(start))
			}
		}(i)
	}
	wg.Wait()
	if drops.Load() != 0 || non200.Load() != 0 {
		t.Fatalf("%d drops, %d non-200s under load", drops.Load(), non200.Load())
	}
	all := make([]time.Duration, 0, clients*perClient)
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[len(all)*99/100-1]
	t.Logf("load: %d requests, p50=%v p99=%v max=%v", len(all), all[len(all)/2], p99, all[len(all)-1])
	if p99 >= 50*time.Millisecond {
		t.Errorf("p99 latency %v, want < 50ms", p99)
	}
	// Every request was evaluated exactly once, one evaluation per request.
	batches := s.batcher.batches.Value()
	items := s.batcher.items.Value()
	if want := uint64(clients * perClient); batches != want || items != want {
		t.Errorf("%d evaluations for %d requests, want %d of each", batches, items, want)
	}
}

// TestPredictValidationOrder: a body with several bad inputs always names
// the first of h, m, c.
func TestPredictValidationOrder(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	for i := 0; i < 20; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/predict",
			`{"workload":"gups/8GB","platform":"SandyBridge","h":-1,"m":-1,"c":3}`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "h must be non-negative") {
			t.Fatalf("attempt %d: %d %s, want 400 naming h", i, resp.StatusCode, body)
		}
	}
}

// TestGoldenJobVsCollectAll: a real sweep job through the executor must
// produce samples bit-identical to a direct Runner.CollectAll — the serving
// layer adds transport, not noise.
func TestGoldenJobVsCollectAll(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline sweep")
	}
	w, err := workloads.ByName("gups/8GB")
	if err != nil {
		t.Fatal(err)
	}
	direct := experiment.NewRunner()
	direct.Proto = experiment.Quick
	dss, err := direct.CollectAll([]workloads.Workload{w}, []arch.Platform{arch.SandyBridge}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := dss[0]

	exec := &SweepExecutor{}
	res, stages, err := exec.Run(context.Background(), JobSpec{
		Workload: "gups/8GB", Platform: "SandyBridge", Proto: "quick",
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) == 0 {
		t.Error("executor reported no stage times")
	}
	if len(res.Samples) != len(want.Samples) {
		t.Fatalf("job produced %d samples, direct %d", len(res.Samples), len(want.Samples))
	}
	for i, s := range res.Samples {
		sw := want.Samples[i]
		if s.Layout != sw.Layout ||
			math.Float64bits(s.H) != math.Float64bits(sw.H) ||
			math.Float64bits(s.M) != math.Float64bits(sw.M) ||
			math.Float64bits(s.C) != math.Float64bits(sw.C) ||
			math.Float64bits(s.R) != math.Float64bits(sw.R) {
			t.Fatalf("sample %d differs: job %+v direct %+v", i, s, sw)
		}
	}
	if math.Float64bits(res.Sample1G.R) != math.Float64bits(want.Sample1G.R) {
		t.Errorf("1GB sample differs: %v vs %v", res.Sample1G.R, want.Sample1G.R)
	}
	if res.TLBSensitive != want.TLBSensitive {
		t.Errorf("TLBSensitive %v vs %v", res.TLBSensitive, want.TLBSensitive)
	}
}

// TestSweepExecutorTrainServesPredict: a Train job installs models that
// /v1/predict then serves — the full train-then-serve loop on the real
// pipeline.
func TestSweepExecutorTrainServesPredict(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline sweep")
	}
	reg, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	exec := &SweepExecutor{Registry: reg}
	_, ts := newTestServer(t, ServerConfig{
		Registry: reg,
		Executor: exec.Run,
		PoolIdle: exec.PoolIdle,
	})
	resp, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"workload":"gups/8GB","platform":"SandyBridge","proto":"quick","train":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		var polled Job
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &polled)
		if polled.State == JobDone {
			break
		}
		if polled.State == JobFailed {
			t.Fatalf("job failed: %s", polled.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep job never finished")
		}
		time.Sleep(50 * time.Millisecond)
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict",
		`{"workload":"gups/8GB","platform":"SandyBridge","layout":"4KB"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after training: %d %s", resp.StatusCode, body)
	}
	var pred registry.Prediction
	if err := json.Unmarshal(body, &pred); err != nil {
		t.Fatal(err)
	}
	if pred.Runtime <= 0 {
		t.Errorf("prediction %+v", pred)
	}
}

// TestJobSpecHash: the cache key canonicalizes equivalent specs and
// separates different ones.
func TestJobSpecHash(t *testing.T) {
	base := JobSpec{Workload: "w", Platform: "p"}
	if base.Hash() != (JobSpec{Workload: "w", Platform: "p", Proto: "standard"}).Hash() {
		t.Error("default proto and explicit standard hash differently")
	}
	d := sim.DefaultSampling
	if (JobSpec{Workload: "w", Platform: "p", Sampling: SamplingSpec{Default: true}}).Hash() !=
		(JobSpec{Workload: "w", Platform: "p", Sampling: SamplingSpec{
			Period: d.Period, MeasureLen: d.MeasureLen, WarmupLen: d.WarmupLen, PrologueLen: d.PrologueLen,
		}}).Hash() {
		t.Error("default sampling and its explicit expansion hash differently")
	}
	if base.Hash() != (JobSpec{Workload: "w", Platform: "p", Train: true}).Hash() {
		t.Error("Train changes the result-cache key")
	}
	distinct := []JobSpec{
		base,
		{Workload: "w2", Platform: "p"},
		{Workload: "w", Platform: "p2"},
		{Workload: "w", Platform: "p", Proto: "quick"},
		{Workload: "w", Platform: "p", Sampling: SamplingSpec{Period: 100, MeasureLen: 10}},
	}
	seen := map[string]int{}
	for i, s := range distinct {
		h := s.Hash()
		if j, dup := seen[h]; dup {
			t.Errorf("specs %d and %d collide: %+v vs %+v", i, j, distinct[i], distinct[j])
		}
		seen[h] = i
	}
}

// TestJobManagerGoldenCachedResultIsSameObject: cache hits return the
// original result, not a recomputation — a canary against drifting specs.
func TestJobManagerGoldenCachedResultIsSameObject(t *testing.T) {
	var runs atomic.Int64
	m := NewJobManager(JobManagerConfig{
		Workers: 1, QueueDepth: 4,
		Run: func(ctx context.Context, spec JobSpec, _ func(sim.Progress), _ func(plan.Step)) (*JobResult, []StageTimeView, error) {
			runs.Add(1)
			return &JobResult{Workload: spec.Workload}, nil, nil
		},
	})
	defer m.Drain(context.Background())
	j1, err := m.Submit(JobSpec{Workload: "w", Platform: "p"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _ := m.Get(j1.ID)
		if got.State == JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never finished")
		}
		time.Sleep(time.Millisecond)
	}
	r1, _, _ := m.Result(j1.ID)
	j2, err := m.Submit(JobSpec{Workload: "w", Platform: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit {
		t.Fatal("identical spec missed the cache")
	}
	r2, _, _ := m.Result(j2.ID)
	if r1 != r2 {
		t.Error("cache hit returned a different result object")
	}
	if runs.Load() != 1 {
		t.Errorf("executor ran %d times, want 1", runs.Load())
	}
}

// TestRetryAfterDerivedFromSaturation: the 429 hint is queue depth times
// the observed per-job wall time divided by drain capacity — not a
// constant. Before any observation the configured fallback answers.
func TestRetryAfterDerivedFromSaturation(t *testing.T) {
	block := make(chan struct{})
	m := NewJobManager(JobManagerConfig{
		Workers: 1, QueueDepth: 4,
		Run: func(ctx context.Context, spec JobSpec, _ func(sim.Progress), _ func(plan.Step)) (*JobResult, []StageTimeView, error) {
			<-block
			return &JobResult{Workload: spec.Workload}, nil, nil
		},
	})
	defer func() {
		close(block)
		m.Drain(context.Background())
	}()

	// No completed job yet: the fallback is all we can say.
	if got := m.RetryAfter(10 * time.Second); got != 10*time.Second {
		t.Fatalf("RetryAfter before observations = %v, want the 10s fallback", got)
	}

	// Build a backlog of 3: one running, two queued.
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(JobSpec{Workload: fmt.Sprintf("w%d", i), Platform: "p"}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Running() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("no job started running")
		}
		time.Sleep(time.Millisecond)
	}
	if got := m.QueueDepth(); got != 2 {
		t.Fatalf("queue depth = %d, want 2", got)
	}

	// Observed mean of 6s per job, one local worker: 3 × 6s ÷ 1 = 18s.
	for i := 0; i < 4; i++ {
		m.saturation.Observe(6 * time.Second)
	}
	if got := m.RetryAfter(10 * time.Second); got != 18*time.Second {
		t.Fatalf("RetryAfter = %v, want 18s (backlog 3 × 6s mean ÷ 1 worker)", got)
	}
}

// lockedBuffer is a log sink that handler goroutines and the test may
// touch at once.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPanicRecovery: a panicking handler answers 500 and logs the panic
// with its stack, and the daemon keeps serving.
func TestPanicRecovery(t *testing.T) {
	var logged lockedBuffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	s, ts := newTestServer(t, ServerConfig{})
	s.mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) { panic("boom") })
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicking handler: %d", resp.StatusCode)
	}
	if out := logged.String(); !strings.Contains(out, "boom") || !strings.Contains(out, "goroutine") {
		t.Errorf("panic log lacks the value or the stack: %q", out)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != 200 {
		t.Errorf("daemon dead after panic: %d", resp.StatusCode)
	}
}

// TestRegistryReloadServesNewPair: hot reload exposed through the API — a
// pair trained into the shared directory by another registry appears after
// Reload without restarting the server.
func TestRegistryReloadServesNewPair(t *testing.T) {
	dir := t.TempDir()
	servingReg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ServerConfig{Registry: servingReg})
	body := `{"workload":"bt","platform":"Skylake","layout":"4KB"}`
	if resp, _ := postJSON(t, ts.URL+"/v1/predict", body); resp.StatusCode != 404 {
		t.Fatalf("pair served before training: %d", resp.StatusCode)
	}
	trainer, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	samples := []pmu.Sample{
		{Layout: "4KB", H: 9e5, M: 4e5, C: 2.4e7, R: 9.1e7},
		{Layout: "2MB", H: 1e5, M: 2e4, C: 1.1e6, R: 6.6e7},
	}
	for i := 0; i < 12; i++ {
		f := float64(i) / 11
		samples = append(samples, pmu.Sample{
			Layout: fmt.Sprintf("g%d", i),
			H:      1e5 + f*8e5, M: 2e4 + f*3.8e5, C: 1.1e6 + f*2.3e7, R: 6.6e7 + f*2.5e7,
		})
	}
	ds := &experiment.Dataset{Workload: "bt", Platform: "Skylake", Samples: samples,
		Sample1G: pmu.Sample{Layout: "1GB", H: 1e4, M: 5e3, C: 3e5, R: 6.5e7}}
	if err := trainer.Train(ds, []string{"mosmodel"}); err != nil {
		t.Fatal(err)
	}
	if n, err := servingReg.Reload(); err != nil || n != 1 {
		t.Fatalf("Reload = (%d, %v)", n, err)
	}
	if resp, b := postJSON(t, ts.URL+"/v1/predict", body); resp.StatusCode != 200 {
		t.Fatalf("pair not served after reload: %d %s", resp.StatusCode, b)
	}
}

// TestAdaptiveJobE2E: a mode-"adaptive" job through the real executor —
// the planner's error-vs-budget curve must stream into job progress,
// land in the result, and the content-addressed cache must serve an
// identical resubmission instantly.
func TestAdaptiveJobE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline sweep")
	}
	exec := &SweepExecutor{TraceDir: t.TempDir()}
	_, ts := newTestServer(t, ServerConfig{Executor: exec.Run, PoolIdle: exec.PoolIdle})

	spec := `{"workload":"gups/8GB","platform":"SandyBridge","proto":"quick","mode":"adaptive","adaptive":{"budget":2}}`
	resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	var done Job
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &done)
		if done.State == JobDone {
			break
		}
		if done.State == JobFailed || done.State == JobCanceled {
			t.Fatalf("job reached %s: %s", done.State, done.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("adaptive job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(done.Progress.Curve) == 0 {
		t.Error("finished adaptive job exposes no planner curve in progress")
	}

	var res JobResult
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/result", &res); resp.StatusCode != 200 {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	ad := res.Adaptive
	if ad == nil {
		t.Fatal("adaptive job result has no adaptive summary")
	}
	if len(ad.Curve) == 0 || len(ad.Curve) != len(done.Progress.Curve) {
		t.Errorf("result curve has %d steps, progress streamed %d", len(ad.Curve), len(done.Progress.Curve))
	}
	if ad.Promotions == 0 || ad.Promotions > 2+2 { // budget 2 + the 4KB/2MB anchors
		t.Errorf("promotions %d outside (0, budget+anchors]", ad.Promotions)
	}
	if ad.CostAccesses == 0 || ad.FullCostAccesses == 0 || ad.CostAccesses >= ad.FullCostAccesses {
		t.Errorf("cost accounting broken: spent %d of %d", ad.CostAccesses, ad.FullCostAccesses)
	}
	if ad.Stopped == "" {
		t.Error("no stop reason recorded")
	}
	if len(res.Samples) == 0 || res.MeasuredAccesses != ad.CostAccesses {
		t.Errorf("dataset: %d samples, measured %d want %d", len(res.Samples), res.MeasuredAccesses, ad.CostAccesses)
	}

	// Identical spec → result cache hit, completes instantly with 200.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	var again Job
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.State != JobDone {
		t.Errorf("resubmitted adaptive spec missed the cache: hit=%v state=%s", again.CacheHit, again.State)
	}

	// Adaptive jobs and plain sweeps of the same pair hash apart.
	if (JobSpec{Workload: "gups/8GB", Platform: "SandyBridge", Proto: "quick"}).Hash() ==
		(JobSpec{Workload: "gups/8GB", Platform: "SandyBridge", Proto: "quick", Mode: "adaptive"}).Hash() {
		t.Error("adaptive and sweep specs share a hash")
	}
}

// TestAdaptiveJobCancel: canceling a running adaptive job reaches the
// canceled state — the planner honors context cancellation between
// measurement batches.
func TestAdaptiveJobCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline sweep")
	}
	exec := &SweepExecutor{TraceDir: t.TempDir(), Parallelism: 1}
	_, ts := newTestServer(t, ServerConfig{Executor: exec.Run})

	resp, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"workload":"spec06/mcf","platform":"Broadwell","mode":"adaptive"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != 200 {
		t.Fatalf("cancel: %v %d", err, resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var polled Job
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &polled)
		if polled.State == JobCanceled {
			break
		}
		if polled.State == JobDone || polled.State == JobFailed {
			t.Fatalf("canceled job reached %s", polled.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("cancellation never landed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
