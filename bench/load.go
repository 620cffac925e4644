package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"mosaic/internal/serve/registry"
)

// predictCase is one /v1/predict request body and the prediction an
// in-process registry over the same model files gives for it.
type predictCase struct {
	req  registry.Request
	body []byte
	want registry.Prediction
}

// predictBody is the /v1/predict wire form.
type predictBody struct {
	Workload string   `json:"workload"`
	Platform string   `json:"platform"`
	Model    string   `json:"model,omitempty"`
	Layout   string   `json:"layout,omitempty"`
	H        *float64 `json:"h,omitempty"`
	M        *float64 `json:"m,omitempty"`
	C        *float64 `json:"c,omitempty"`
}

// requestMix draws n predict requests from the seeded rng over every pair
// reg serves. No recorded predict log exists to take proportions from, so
// every choice docs/serving.md documents is drawn uniformly: the pair; the
// model, among the default (no model field) and each trained one; the form,
// by layout name or with explicit counter inputs; and the training layout
// named, or whose measured H, M and C are sent as the explicit inputs.
func requestMix(reg *registry.Registry, rng *rand.Rand, n int) ([]predictCase, error) {
	pairs := reg.Pairs()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("registry in %s serves no pairs", reg.Dir())
	}
	out := make([]predictCase, 0, n)
	for len(out) < n {
		p := pairs[rng.Intn(len(pairs))]
		models := []string{""}
		for name := range p.Models {
			models = append(models, name)
		}
		sort.Strings(models)
		req := registry.Request{Workload: p.Workload, Platform: p.Platform, Model: models[rng.Intn(len(models))]}
		body := predictBody{Workload: p.Workload, Platform: p.Platform, Model: req.Model}
		lay := p.Layouts[rng.Intn(len(p.Layouts))]
		if rng.Intn(2) == 0 {
			req.Layout, body.Layout = lay, lay
		} else {
			base, err := reg.Predict(registry.Request{Workload: p.Workload, Platform: p.Platform, Layout: lay})
			if err != nil {
				return nil, err
			}
			req.H, req.M, req.C = base.H, base.M, base.C
			body.H, body.M, body.C = &req.H, &req.M, &req.C
		}
		want, err := reg.Predict(req)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		out = append(out, predictCase{req: req, body: raw, want: want})
	}
	return out, nil
}

// samePrediction compares two predictions bit for bit.
func samePrediction(a, b registry.Prediction) bool {
	fa := [...]float64{a.H, a.M, a.C, a.Runtime, a.Lo, a.Hi, a.MaxTrainErr, a.GeoTrainErr}
	fb := [...]float64{b.H, b.M, b.C, b.Runtime, b.Lo, b.Hi, b.MaxTrainErr, b.GeoTrainErr}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Workload == b.Workload && a.Platform == b.Platform && a.Model == b.Model && a.Layout == b.Layout
}

// genConns is the generator's connection and sender count: one per core,
// so the generator cannot outrun the host it shares with mosd.
func genConns() int { return max(1, runtime.GOMAXPROCS(0)) }

// generator sends open-loop /v1/predict traffic: requests leave at seeded
// Poisson arrival times whether or not earlier ones have returned, and
// each is timed from when it was due, so a stalled server charges its
// stall to every request queued behind it.
type generator struct {
	url    string
	client *http.Client
	cases  []predictCase
	rng    *rand.Rand
	rec    *Recorder
	next   int // index of the next case, cycling through cases
}

// newGenerator draws arrival times from a generator of their own, so how
// many requests an open-ended phase sends never shifts the run's other
// seeded choices.
func newGenerator(base string, cases []predictCase, seed int64, rec *Recorder) *generator {
	conns := genConns()
	return &generator{
		url: base + "/v1/predict",
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
			Timeout:   30 * time.Second,
		},
		cases: cases,
		rng:   rand.New(rand.NewSource(seed ^ 0x5eed)),
		rec:   rec,
	}
}

// reqSample is one request's timeline, relative to its phase's start.
type reqSample struct {
	due, sent, done time.Duration
	waited          bool // the sender slept until the due time
	abandoned       bool // never sent: the phase ended first
	traced          bool
	ok              bool
	failure         string
}

// abandonAfter is how long past a counted phase's last due time senders
// keep sending before abandoning what is left.
const abandonAfter = time.Second

// phase sends count requests at the given rate, or, when count is 0,
// requests until stop closes, and returns them in due order. parent is the
// span the requests' spans hang under when tracing.
func (g *generator) phase(rate float64, count int, stop <-chan struct{}, parent int, label string) []reqSample {
	var (
		mu      sync.Mutex
		dues    []time.Duration
		samples []reqSample
		at      time.Duration
	)
	arrive := func() time.Duration {
		at += time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
		return at
	}
	for i := 0; i < count; i++ {
		dues = append(dues, arrive())
	}
	samples = make([]reqSample, len(dues))
	var giveUp time.Duration
	if count > 0 {
		giveUp = dues[count-1] + abandonAfter
	}
	base, next := g.next, 0
	// take hands the next request to a sender. Counted phases draw every
	// arrival up front; open-ended ones draw lazily until stop closes.
	take := func() (int, time.Duration, bool) {
		mu.Lock()
		defer mu.Unlock()
		if count > 0 {
			if next >= count {
				return 0, 0, false
			}
		} else {
			select {
			case <-stop:
				return 0, 0, false
			default:
			}
			dues = append(dues, arrive())
			samples = append(samples, reqSample{})
		}
		i := next
		next++
		return i, dues[i], true
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < genConns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, due, ok := take()
				if !ok {
					return
				}
				s := g.send(base+i, due, start, stop, count > 0, giveUp, parent, label)
				mu.Lock()
				samples[i] = s
				mu.Unlock()
				if s.abandoned && count == 0 {
					return // stop closed before this request was due
				}
			}
		}()
	}
	wg.Wait()
	g.next = base + next
	if count == 0 {
		// Requests drawn after stop closed were never due inside the phase.
		for len(samples) > 0 && samples[len(samples)-1].abandoned {
			samples = samples[:len(samples)-1]
		}
	}
	return samples
}

// send waits for the request's due time and sends it, or abandons it when
// the phase ends first.
func (g *generator) send(i int, due time.Duration, start time.Time, stop <-chan struct{}, counted bool, giveUp time.Duration, parent int, label string) reqSample {
	s := reqSample{due: due}
	if wait := due - time.Since(start); wait > 0 {
		s.waited = true
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			s.abandoned = true
			return s
		}
	}
	if counted && time.Since(start) > giveUp {
		s.abandoned = true
		s.sent, s.done = giveUp, giveUp
		return s
	}
	c := g.cases[i%len(g.cases)]
	s.traced = g.rec != nil && i%2 == 0
	id := 0
	if s.traced {
		id = g.rec.Begin("http.predict", label+"-"+strconv.Itoa(i), parent)
	}
	s.sent = time.Since(start)
	s.ok, s.failure = g.post(c)
	s.done = time.Since(start)
	g.rec.End(id)
	return s
}

// post sends one request and checks the reply against the in-process
// prediction.
func (g *generator) post(c predictCase) (bool, string) {
	resp, err := g.client.Post(g.url, "application/json", bytes.NewReader(c.body))
	if err != nil {
		return false, err.Error()
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("predict %s: status %d: %s", c.body, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var got registry.Prediction
	if err := json.Unmarshal(raw, &got); err != nil {
		return false, fmt.Sprintf("predict %s: %v", c.body, err)
	}
	if !samePrediction(got, c.want) {
		return false, fmt.Sprintf("predict %s: served %+v, in-process registry gives %+v", c.body, got, c.want)
	}
	return true, ""
}

// close releases the generator's connections.
func (g *generator) close() { g.client.CloseIdleConnections() }

// phaseStats summarizes a phase in milliseconds.
type phaseStats struct {
	latency  []float64 // from due to reply, ascending; abandoned requests count until they were given up
	delays   []float64 // from due to send, in due order
	service  []float64 // from send to reply, completed requests
	lags     []float64 // from due to send where the sender was waiting: timer lateness
	traced   []float64 // latency of traced requests
	plain    []float64 // latency of untraced requests
	done     int
	lost     int // abandoned
	achieved float64
}

// stats accounts a phase's requests as operations of the run and
// summarizes them.
func (r *run) stats(samples []reqSample) phaseStats {
	var st phaseStats
	var last time.Duration
	for _, s := range samples {
		lat := ms(s.done - s.due)
		st.latency = append(st.latency, lat)
		st.delays = append(st.delays, ms(s.sent-s.due))
		if s.abandoned {
			st.lost++
			continue
		}
		r.op(s.ok, "%s", s.failure)
		st.done++
		last = max(last, s.done)
		st.service = append(st.service, ms(s.done-s.sent))
		if s.waited {
			st.lags = append(st.lags, ms(s.sent-s.due))
		}
		if s.traced {
			st.traced = append(st.traced, lat)
		} else {
			st.plain = append(st.plain, lat)
		}
	}
	sort.Float64s(st.latency)
	if last > 0 {
		st.achieved = float64(st.done) / last.Seconds()
	}
	return st
}

// latencyLimitMs is the predict latency limit a rate must hold at its
// tail percentile to count towards predict_max_rps.
const latencyLimitMs = 10.0

// rung is one step of the rate ladder.
type rung struct {
	rate  float64
	count int
}

// ladderResult is the first rung's statistics and the ladder's outcome.
type ladderResult struct {
	first    phaseStats
	cpuUs    float64 // mosd CPU time per completed request on the first rung, microseconds
	lags     []float64
	overhead float64 // traced vs untraced median latency on the first rung, percent
	maxRPS   float64
}

// runLadder climbs the rate ladder, stopping after the first rung that
// misses the latency limit or builds a backlog. mosd's own counters and
// CPU time are read around the first rung.
func (r *run) runLadder(g *generator, d *daemon, rungs []rung) (ladderResult, error) {
	var out ladderResult
	var outcomes []rungOutcome
	for k, rg := range rungs {
		var before map[string]float64
		var cpu0 time.Duration
		if k == 0 {
			var err error
			if before, err = d.metrics(); err != nil {
				return out, err
			}
			if cpu0, err = d.cpuTime(); err != nil {
				return out, err
			}
		}
		label := "rung-" + strconv.Itoa(int(rg.rate))
		span := r.rec.Begin(label, label, 0)
		st := r.stats(g.phase(rg.rate, rg.count, nil, span, label))
		r.rec.End(span)
		if k == 0 {
			cpu1, err := d.cpuTime()
			if err != nil {
				return out, err
			}
			after, err := d.metrics()
			if err != nil {
				return out, err
			}
			r.serverMetrics(before, after, st)
			out.cpuUs = float64(cpu1-cpu0) / float64(time.Microsecond) / float64(max(1, st.done))
		}
		p, tail := tailPercentile(st.latency, 99)
		backlog := st.lost > 0 || growingBacklog(st.delays)
		o := rungOutcome{achieved: st.achieved, tailMs: tail, pass: tail <= latencyLimitMs && !backlog}
		outcomes = append(outcomes, o)
		out.lags = append(out.lags, st.lags...)
		r.detail(fmt.Sprintf("predict_p50_ms@%g", rg.rate), "ms", median(st.latency))
		r.detail(fmt.Sprintf("predict_p%g_ms@%g", p, rg.rate), "ms", tail)
		r.detail(fmt.Sprintf("predict_rps@%g", rg.rate), "1/s", st.achieved)
		if k == 0 {
			out.first = st
			if len(st.traced) > 0 && len(st.plain) > 0 {
				out.overhead = 100 * (median(st.traced)/median(st.plain) - 1)
			}
		}
		if !o.pass {
			break
		}
	}
	out.maxRPS = maxRate(outcomes, latencyLimitMs)
	return out, nil
}

// serverMetrics sets the serving layers' metrics from mosd's counters over
// one phase: requests per registry batch, the server-side predict time, and
// what the client saw beyond it.
func (r *run) serverMetrics(before, after map[string]float64, st phaseStats) {
	delta := func(name string) float64 { return after[name] - before[name] }
	batches := delta("mosd_predict_batches_total")
	count := delta("mosd_predict_duration_seconds_count")
	batch, server := 0.0, 0.0
	if batches > 0 {
		batch = delta("mosd_predict_batched_requests_total") / batches
	}
	if count > 0 {
		server = 1000 * delta("mosd_predict_duration_seconds_sum") / count
	}
	r.set("serve.batch_size_mean", batch)
	r.set("serve.predict_server_ms", server)
	r.set("serve.http_overhead_ms", mean(st.service)-server)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// predictRungs is the ladder a workload climbs: 400 req/s for first
// requests (at least 1100, enough for a p99 with ten samples beyond it),
// then doubling rates of 1100 requests each. The higher rungs feed only
// per-layer metrics, so untraced runs stop after the first. Small runs one
// one-second rung.
func predictRungs(small, traced bool, first int) []rung {
	switch {
	case small:
		return []rung{{400, 400}}
	case !traced:
		return []rung{{400, first}}
	}
	return []rung{{400, first}, {800, 1100}, {1600, 1100}, {3200, 1100}}
}

// ladderBudget estimates how long predictRungs takes when the 1600 req/s
// rung is the first to fail.
func ladderBudget(rungs []rung) time.Duration {
	var d time.Duration
	for _, rg := range rungs {
		if rg.rate > 1600 {
			break
		}
		d += time.Duration(float64(rg.count) / rg.rate * float64(time.Second))
	}
	return d + time.Second
}

// recordPredict sets the predict metrics and the generator's validity
// metrics from a ladder. cal scales CPU time to the reference host speed.
func (r *run) recordPredict(lr ladderResult, cal float64) {
	_, p99 := tailPercentile(lr.first.latency, 99)
	r.set("predict_cpu_us", lr.cpuUs*cal)
	r.detail("predict_cpu_us.raw", "us", lr.cpuUs)
	r.set("predict_p50_ms", median(lr.first.latency))
	r.set("predict_p99_ms", p99)
	r.set("predict_max_rps", lr.maxRPS)
	r.set("bench.generator_lag_p99_ms", nearestRank(sorted(lr.lags), 99))
	r.detail("predict_requests@400", "count", float64(len(lr.first.latency)))
}
