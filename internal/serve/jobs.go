package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"mosaic/internal/binfmt"
	"mosaic/internal/experiment"
	"mosaic/internal/plan"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
)

// Async sweep jobs: a measurement sweep takes seconds to hours, so the API
// accepts it as a job, runs it on a bounded worker pool reusing the
// simulation-engine layer, and lets clients poll for progress and results.
// Identical specs share results through a content-addressed cache — the
// replay pipeline is deterministic, so a (workload, platform, protocol,
// sampling) tuple fully determines its counters.

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// SamplingSpec selects sampled replay for a job. The zero value means
// exact replay; Default true applies sim.DefaultSampling.
type SamplingSpec struct {
	Default     bool `json:"default,omitempty"`
	Period      int  `json:"period,omitempty"`
	MeasureLen  int  `json:"measureLen,omitempty"`
	WarmupLen   int  `json:"warmupLen,omitempty"`
	PrologueLen int  `json:"prologueLen,omitempty"`
}

func (s SamplingSpec) toSim() sim.Sampling {
	if s.Default {
		return sim.DefaultSampling
	}
	return sim.Sampling{
		Period:      s.Period,
		MeasureLen:  s.MeasureLen,
		WarmupLen:   s.WarmupLen,
		PrologueLen: s.PrologueLen,
	}
}

// AdaptiveSpec tunes mode "adaptive": the active-learning planner that
// probes the whole protocol cheaply and spends exact-measurement budget
// where model uncertainty concentrates (internal/plan).
type AdaptiveSpec struct {
	// ErrorTarget stops the planner once the cross-validated predicted
	// max relative error reaches it (0 = budget-driven).
	ErrorTarget float64 `json:"errorTarget,omitempty"`
	// Budget bounds exact layout measurements (0 = planner default,
	// one fifth of the protocol).
	Budget int `json:"budget,omitempty"`
	// Seed overrides the pair-derived deterministic selection seed.
	Seed int64 `json:"seed,omitempty"`
}

// JobSpec describes one sweep: measure a workload on a platform under a
// layout protocol, optionally with sampled replay, optionally training
// models into the registry afterwards.
type JobSpec struct {
	Workload string       `json:"workload"`
	Platform string       `json:"platform"`
	Proto    string       `json:"proto,omitempty"` // "quick" | "standard" | "extended" (default standard)
	Sampling SamplingSpec `json:"sampling,omitempty"`
	// Mode selects the sweep strategy: "" or "sweep" measures the full
	// protocol at one fidelity; "adaptive" runs the active-learning
	// planner. In adaptive mode Sampling configures the probe fidelity
	// (default: the planner's aggressive probe plan).
	Mode string `json:"mode,omitempty"`
	// Adaptive tunes mode "adaptive"; ignored otherwise.
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
	// Train, when true, fits the registry models on the collected dataset
	// and installs them for /v1/predict.
	Train bool `json:"train,omitempty"`
}

// mode canonicalizes the wire mode name.
func (s JobSpec) mode() (string, error) {
	switch s.Mode {
	case "", "sweep":
		return "sweep", nil
	case "adaptive":
		return "adaptive", nil
	}
	return "", fmt.Errorf("unknown mode %q (want sweep or adaptive)", s.Mode)
}

// proto maps the wire name to the protocol enum.
func (s JobSpec) proto() (experiment.Protocol, error) {
	switch s.Proto {
	case "", "standard":
		return experiment.Standard, nil
	case "quick":
		return experiment.Quick, nil
	case "extended":
		return experiment.Extended, nil
	}
	return 0, fmt.Errorf("unknown proto %q (want quick, standard, or extended)", s.Proto)
}

// Hash content-addresses the spec for the result cache. Train is excluded:
// it is a side effect, not part of the measured result.
func (s JobSpec) Hash() string {
	canon := s
	canon.Train = false
	if canon.Proto == "" {
		canon.Proto = "standard"
	}
	// Mode "sweep" canonicalizes to "" so pre-mode specs keep their
	// hashes; adaptive specs normalize a nil tuning block to its zero
	// value (same planner defaults ⇒ same deterministic result).
	if canon.Mode == "sweep" {
		canon.Mode = ""
	}
	if canon.Mode == "" {
		canon.Adaptive = nil
	} else if canon.Adaptive == nil {
		canon.Adaptive = &AdaptiveSpec{}
	}
	if canon.Sampling.Default {
		d := sim.DefaultSampling
		canon.Sampling = SamplingSpec{
			Period: d.Period, MeasureLen: d.MeasureLen,
			WarmupLen: d.WarmupLen, PrologueLen: d.PrologueLen,
		}
	}
	raw, _ := json.Marshal(canon) // struct of strings/ints/bools cannot fail
	return fmt.Sprintf("%016x", binfmt.FNV1a(raw))
}

// AdaptiveResult summarizes a planned sweep: how the budget was spent
// and what predicted accuracy it bought. Curve is the full
// error-vs-budget trajectory, one step per planner round.
type AdaptiveResult struct {
	Promotions       int         `json:"promotions"`
	PredictedMaxErr  float64     `json:"predictedMaxErr"`
	ProbeAccesses    uint64      `json:"probeAccesses"`
	ExactAccesses    uint64      `json:"exactAccesses"`
	CostAccesses     uint64      `json:"costAccesses"`
	FullCostAccesses uint64      `json:"fullCostAccesses"`
	CostRatio        float64     `json:"costRatio"`
	Stopped          string      `json:"stopped"`
	Curve            []plan.Step `json:"curve"`
}

// JobResult is a finished sweep's dataset in API form.
type JobResult struct {
	Workload         string       `json:"workload"`
	Platform         string       `json:"platform"`
	TLBSensitive     bool         `json:"tlbSensitive"`
	Samples          []pmu.Sample `json:"samples"`
	Sample1G         pmu.Sample   `json:"sample1G"`
	MeasuredAccesses uint64       `json:"measuredAccesses,omitempty"`
	TotalAccesses    uint64       `json:"totalAccesses,omitempty"`
	// Adaptive is set for mode "adaptive" jobs.
	Adaptive *AdaptiveResult `json:"adaptive,omitempty"`
}

// resultFromDataset converts the pipeline's dataset.
func resultFromDataset(ds *experiment.Dataset) *JobResult {
	return &JobResult{
		Workload:         ds.Workload,
		Platform:         ds.Platform,
		TLBSensitive:     ds.TLBSensitive,
		Samples:          ds.Samples,
		Sample1G:         ds.Sample1G,
		MeasuredAccesses: ds.MeasuredAccesses,
		TotalAccesses:    ds.TotalAccesses,
	}
}

// JobProgress is the live view of a running job. For adaptive jobs,
// Curve streams the planner's error-vs-budget trajectory as rounds
// complete, so pollers watch predicted error fall against spend.
type JobProgress struct {
	Stage   string      `json:"stage,omitempty"`
	Done    int         `json:"done"`
	Total   int         `json:"total"`
	ETA     string      `json:"eta,omitempty"`
	Percent float64     `json:"percent"`
	Curve   []plan.Step `json:"curve,omitempty"`
}

// StageTimeView is one pipeline stage's aggregate wall time for the job.
type StageTimeView struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// Job is one tracked sweep.
type Job struct {
	ID      string   `json:"id"`
	Spec    JobSpec  `json:"spec"`
	State   JobState `json:"state"`
	Created string   `json:"created"`

	Progress   JobProgress     `json:"progress"`
	StageTimes []StageTimeView `json:"stageTimes,omitempty"`
	Error      string          `json:"error,omitempty"`
	CacheHit   bool            `json:"cacheHit,omitempty"`

	result *JobResult
	cancel context.CancelFunc
	ctx    context.Context
}

// ErrQueueFull reports a full job queue; the HTTP layer maps it to 429.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrUnknownJob reports an unknown job ID; mapped to 404.
var ErrUnknownJob = errors.New("serve: unknown job")

// JobExecutor runs one job's sweep. The production executor builds an
// experiment pipeline; tests inject stubs. onCurve, non-nil, receives
// adaptive planner steps as they happen (sweep-mode executions never
// call it).
type JobExecutor func(ctx context.Context, spec JobSpec, onProgress func(sim.Progress), onCurve func(plan.Step)) (*JobResult, []StageTimeView, error)

// JobManager owns the queue, worker pool, job table, and result cache.
type JobManager struct {
	run      JobExecutor
	queue    chan *Job
	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // creation order, for listing
	cache    map[string]*JobResult
	seq      uint64
	running  int
	baseCtx  context.Context
	stopBase context.CancelFunc
	wg       sync.WaitGroup
	clock    func() time.Time

	// saturation windows observed per-job wall times; RetryAfter derives
	// overflow hints from it instead of a constant.
	saturation saturation
	workers    int

	// Metrics, all optional (nil-safe via setup in NewJobManager).
	jobsTotal   *CounterVec // label: terminal state
	cacheHits   *Counter
	cacheLookup *Counter
	jobSeconds  *Histogram
}

// JobManagerConfig sizes the manager.
type JobManagerConfig struct {
	// Workers bounds concurrently running jobs (min 1).
	Workers int
	// QueueDepth bounds jobs waiting to run; a full queue rejects with
	// ErrQueueFull (min 1).
	QueueDepth int
	// Run executes one job.
	Run JobExecutor
	// Metrics, when set, receives job counters and latency histograms.
	Metrics *Metrics
}

// NewJobManager starts the worker pool.
func NewJobManager(cfg JobManagerConfig) *JobManager {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &JobManager{
		run:      cfg.Run,
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     make(map[string]*Job),
		cache:    make(map[string]*JobResult),
		baseCtx:  ctx,
		stopBase: cancel,
		clock:    time.Now,
		workers:  cfg.Workers,
	}
	mx := cfg.Metrics
	if mx == nil {
		mx = NewMetrics() // throwaway: keeps the hot path nil-free
	}
	m.jobsTotal = mx.NewCounterVec("mosd_jobs_total", "Jobs by terminal state.", "state")
	m.cacheHits = mx.NewCounter("mosd_job_cache_hits_total", "Job submissions served from the result cache.")
	m.cacheLookup = mx.NewCounter("mosd_job_cache_lookups_total", "Job submissions checked against the result cache.")
	m.jobSeconds = mx.NewHistogram("mosd_job_duration_seconds", "Wall time of executed (non-cached) jobs.", DefaultLatencyBuckets)
	if cfg.Metrics != nil {
		cfg.Metrics.NewGaugeFunc("mosd_job_queue_depth", "Jobs waiting for a worker.", func() float64 {
			return float64(len(m.queue))
		})
		cfg.Metrics.NewGaugeFunc("mosd_jobs_running", "Jobs currently executing.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.running)
		})
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// QueueDepth reports jobs waiting for a worker.
func (m *JobManager) QueueDepth() int { return len(m.queue) }

// RetryAfter derives the 429 hint from the current backlog and the
// windowed mean job wall time (see saturation): the expected time for the
// backlog — queued plus running jobs — to drain one slot at the local
// job-worker count. fallback answers before the first job completes.
func (m *JobManager) RetryAfter(fallback time.Duration) time.Duration {
	backlog := m.QueueDepth() + m.Running()
	return m.saturation.RetryAfter(backlog, m.workers, fallback)
}

// Submit validates the spec, consults the result cache, and enqueues. A
// cached spec completes instantly. Returns the job (done or queued) — or
// ErrQueueFull when the queue cannot take it.
func (m *JobManager) Submit(spec JobSpec) (*Job, error) {
	if _, err := spec.proto(); err != nil {
		return nil, err
	}
	if _, err := spec.mode(); err != nil {
		return nil, err
	}
	hash := spec.Hash()

	m.mu.Lock()
	m.seq++
	job := &Job{
		ID:      fmt.Sprintf("job-%06d", m.seq),
		Spec:    spec,
		Created: m.clock().UTC().Format(time.RFC3339Nano),
	}
	m.cacheLookup.Inc()
	if res, ok := m.cache[hash]; ok && !spec.Train {
		// Training is a side effect on the registry, so Train jobs always
		// execute; pure measurement jobs ride the cache.
		m.cacheHits.Inc()
		job.State = JobDone
		job.CacheHit = true
		job.result = res
		job.Progress = JobProgress{Done: 1, Total: 1, Percent: 100}
		m.jobs[job.ID] = job
		m.order = append(m.order, job.ID)
		m.mu.Unlock()
		m.jobsTotal.Inc(string(JobDone))
		return job.snapshot(), nil
	}
	job.State = JobQueued
	ctx, cancel := context.WithCancel(m.baseCtx)
	job.cancel = cancel
	job.ctx = ctx
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	// Snapshot before the enqueue: the moment the job hits the queue a
	// worker may start mutating it, so reading it afterwards would race.
	snap := job.snapshot()
	m.mu.Unlock()

	select {
	case m.queue <- job:
		return snap, nil
	default:
		// Other submits may have listed jobs since ours, so withdraw our
		// own ID rather than the last one.
		m.mu.Lock()
		delete(m.jobs, job.ID)
		for i := len(m.order) - 1; i >= 0; i-- {
			if m.order[i] == job.ID {
				m.order = slices.Delete(m.order, i, i+1)
				break
			}
		}
		m.mu.Unlock()
		cancel()
		return nil, ErrQueueFull
	}
}

// worker drains the queue until the manager stops.
func (m *JobManager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.execute(job)
	}
}

// execute runs one job to a terminal state.
func (m *JobManager) execute(job *Job) {
	ctx := job.ctx
	m.mu.Lock()
	if job.State != JobQueued { // canceled while queued
		m.mu.Unlock()
		return
	}
	job.State = JobRunning
	m.running++
	m.mu.Unlock()

	start := m.clock()
	onProgress := func(p sim.Progress) {
		m.mu.Lock()
		job.Progress = JobProgress{
			Stage: p.Stage,
			Done:  p.Done,
			Total: p.Total,
		}
		if p.Total > 0 {
			job.Progress.Percent = 100 * float64(p.Done) / float64(p.Total)
		}
		if p.ETA > 0 {
			job.Progress.ETA = p.ETA.Round(time.Second).String()
		}
		m.mu.Unlock()
	}
	onCurve := func(s plan.Step) {
		m.mu.Lock()
		job.Progress.Curve = append(job.Progress.Curve, s)
		m.mu.Unlock()
	}
	res, stages, err := m.run(ctx, job.Spec, onProgress, onCurve)
	elapsed := m.clock().Sub(start)
	m.jobSeconds.Observe(elapsed)
	m.saturation.Observe(elapsed)

	m.mu.Lock()
	m.running--
	job.StageTimes = stages
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || ctx.Err() != nil):
		job.State = JobCanceled
		job.Error = "canceled"
	case err != nil:
		job.State = JobFailed
		job.Error = err.Error()
	default:
		job.State = JobDone
		job.result = res
		job.Progress.Percent = 100
		job.Progress.ETA = ""
		m.cache[job.Spec.Hash()] = res
	}
	state := job.State
	m.mu.Unlock()
	m.jobsTotal.Inc(string(state))
}

// Get returns a snapshot of one job.
func (m *JobManager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return job.snapshot(), nil
}

// Result returns a finished job's result, or (nil, nil) when the job
// exists but has not finished.
func (m *JobManager) Result(id string) (*JobResult, *Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return job.result, job.snapshot(), nil
}

// Cancel cancels a queued or running job. Queued jobs flip to canceled
// immediately; running jobs stop claiming pipeline work (in-flight replays
// finish) and reach canceled when their executor returns.
func (m *JobManager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if job.State == JobQueued {
		job.State = JobCanceled
		job.Error = "canceled"
		m.jobsTotal.Inc(string(JobCanceled))
	}
	cancel := job.cancel
	snap := job.snapshot()
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return snap, nil
}

// List returns snapshots of every job, oldest first.
func (m *JobManager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if job, ok := m.jobs[id]; ok {
			out = append(out, job.snapshot())
		}
	}
	return out
}

// Running reports currently executing jobs.
func (m *JobManager) Running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.running
}

// Drain stops accepting queue work and waits — up to the context's
// deadline — for running jobs to finish. Queued-but-unstarted jobs are
// marked canceled. It is the graceful-shutdown path: SIGTERM drains, then
// the process exits 0.
func (m *JobManager) Drain(ctx context.Context) error {
	close(m.queue) // workers exit once the backlog drains
	// Flip queued jobs to canceled so pollers see a terminal state; the
	// workers skip them (execute checks the state before running).
	m.mu.Lock()
	for _, id := range m.order {
		job := m.jobs[id]
		if job.State == JobQueued {
			job.State = JobCanceled
			job.Error = "canceled: server shutting down"
			m.jobsTotal.Inc(string(JobCanceled))
		}
	}
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.stopBase() // deadline passed: cancel in-flight jobs too
		<-done
		return ctx.Err()
	}
}

// snapshot deep-copies the JSON-visible fields under the caller's lock.
func (j *Job) snapshot() *Job {
	c := *j
	c.cancel = nil
	c.ctx = nil
	if j.StageTimes != nil {
		c.StageTimes = append([]StageTimeView{}, j.StageTimes...)
	}
	if j.Progress.Curve != nil {
		c.Progress.Curve = append([]plan.Step{}, j.Progress.Curve...)
	}
	return &c
}

// stageViews converts pipeline timing to the API form, dropping untouched
// stages.
func stageViews(times []sim.StageTime) []StageTimeView {
	out := make([]StageTimeView, 0, len(times))
	for _, st := range times {
		if st.Count == 0 {
			continue
		}
		out = append(out, StageTimeView{
			Stage:   st.Stage.String(),
			Seconds: st.Total.Seconds(),
			Count:   st.Count,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}
