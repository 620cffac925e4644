// Package serve implements mosd, the prediction-serving daemon: a
// long-running HTTP/JSON API over the repo's measurement pipeline and
// model registry. /v1/predict evaluates fitted runtime models in
// microseconds — the paper's end state, where a trained Mosmodel replaces
// simulation — and /v1/jobs runs the sweeps that produce those models as
// bounded, observable background work.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"mosaic/internal/serve/registry"
)

// ServerConfig wires a server.
type ServerConfig struct {
	// Registry serves predictions; required.
	Registry *registry.Registry
	// Executor runs jobs; nil disables /v1/jobs submission with 503.
	Executor JobExecutor
	// JobWorkers / JobQueueDepth size the job manager (defaults 2 / 16).
	JobWorkers    int
	JobQueueDepth int
	// RetryAfter is the 429 hint before any job has completed; once the
	// saturation window has observations the hint is derived from backlog
	// × mean job wall time ÷ JobWorkers instead (default 10s).
	RetryAfter time.Duration
	// PoolIdle, when set, backs the sim-pool occupancy gauge (wire it to
	// SweepExecutor.PoolIdle).
	PoolIdle func() int
}

// Server is the daemon's HTTP surface plus its moving parts.
type Server struct {
	cfg      ServerConfig
	reg      *registry.Registry
	jobs     *JobManager
	batcher  *Batcher
	metrics  *Metrics
	mux      *http.ServeMux
	ready    atomic.Bool
	inflight atomic.Int64

	reqTotal   *CounterVec // label: route
	reqErrors  *CounterVec // label: code
	predictSec *Histogram
	httpSec    *Histogram
}

// NewServer builds the full stack: metrics, batcher, job manager, routes.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Registry == nil {
		panic("serve: ServerConfig.Registry is required")
	}
	if cfg.JobWorkers < 1 {
		cfg.JobWorkers = 2
	}
	if cfg.JobQueueDepth < 1 {
		cfg.JobQueueDepth = 16
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 10 * time.Second
	}
	s := &Server{cfg: cfg, reg: cfg.Registry, metrics: NewMetrics()}

	s.reqTotal = s.metrics.NewCounterVec("mosd_http_requests_total", "HTTP requests by route.", "route")
	s.reqErrors = s.metrics.NewCounterVec("mosd_http_errors_total", "HTTP error responses by status code.", "code")
	s.predictSec = s.metrics.NewHistogram("mosd_predict_duration_seconds", "Latency of /v1/predict evaluations.", DefaultLatencyBuckets)
	s.httpSec = s.metrics.NewHistogram("mosd_http_request_duration_seconds", "Latency of all HTTP requests.", DefaultLatencyBuckets)
	s.metrics.NewGaugeFunc("mosd_http_inflight_requests", "Requests currently being served.", func() float64 {
		return float64(s.inflight.Load())
	})
	s.metrics.NewGaugeFunc("mosd_registry_pairs", "Trained (workload, platform) pairs loaded.", func() float64 {
		return float64(s.reg.Len())
	})
	if cfg.PoolIdle != nil {
		s.metrics.NewGaugeFunc("mosd_sim_pool_idle_engines", "Idle pooled simulation engines across live job pipelines.", func() float64 {
			return float64(cfg.PoolIdle())
		})
	}

	s.batcher = NewBatcher(cfg.Registry, BatcherConfig{Metrics: s.metrics})

	if cfg.Executor != nil {
		s.jobs = NewJobManager(JobManagerConfig{
			Workers:    cfg.JobWorkers,
			QueueDepth: cfg.JobQueueDepth,
			Run:        cfg.Executor,
			Metrics:    s.metrics,
		})
	}

	s.mux = http.NewServeMux()
	s.routes()
	s.ready.Store(true)
	return s
}

// Metrics exposes the registry for callers adding their own gauges.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Jobs exposes the manager (nil when no executor was configured).
func (s *Server) Jobs() *JobManager { return s.jobs }

// ServeHTTP implements http.Handler with the common middleware: inflight
// tracking, latency observation, panic recovery.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	start := time.Now()
	defer func() {
		s.inflight.Add(-1)
		s.httpSec.Observe(time.Since(start))
		if rec := recover(); rec != nil {
			// A handler bug must not kill the daemon; surface a 500.
			log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			s.reqErrors.Inc("500")
			http.Error(w, `{"error":"internal error"}`, http.StatusInternalServerError)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the job manager (graceful stop).
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	if s.jobs != nil {
		return s.jobs.Drain(ctx)
	}
	return nil
}

// routes registers every endpoint (Go 1.22 method+pattern routing).
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/predict", s.count("predict", s.handlePredict))
	s.mux.HandleFunc("GET /v1/models", s.count("models", s.handleModels))
	s.mux.HandleFunc("POST /v1/jobs", s.count("jobs.submit", s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.count("jobs.list", s.handleJobList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.count("jobs.get", s.handleJobGet))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.count("jobs.result", s.handleJobResult))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.count("jobs.cancel", s.handleJobCancel))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// count wraps a handler with its per-route request counter.
func (s *Server) count(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reqTotal.Inc(route)
		h(w, r)
	}
}

// writeJSON writes one JSON response. The body is encoded before the
// status goes out, so a value encoding/json refuses becomes a 500 error
// envelope rather than the given status with a truncated body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

// fail writes the error envelope and counts it.
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.reqErrors.Inc(strconv.Itoa(code))
	s.writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handlePredict evaluates one model on the handler's goroutine.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var body predictRequest
	if err := decodeStrict(r.Body, &body); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	req, err := body.validate()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	pred, err := s.batcher.Predict(r.Context(), req)
	s.predictSec.Observe(time.Since(start))
	switch {
	case err == nil && !finite(pred.Runtime, pred.Lo, pred.Hi):
		// Finite inputs far outside the training samples can overflow a
		// model; JSON has no encoding for the result.
		s.fail(w, http.StatusBadRequest, "prediction is not finite (runtime %v): inputs are outside the model's range", pred.Runtime)
	case err == nil:
		s.writeJSON(w, http.StatusOK, pred)
	case errors.Is(err, registry.ErrUnknownPair),
		errors.Is(err, registry.ErrUnknownModel),
		errors.Is(err, registry.ErrUnknownLayout):
		s.fail(w, http.StatusNotFound, "%v", err)
	default:
		s.fail(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleModels lists trained pairs and their models.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"pairs": s.reg.Pairs()})
}

// handleJobSubmit enqueues one sweep job; 429 + Retry-After on overflow.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.fail(w, http.StatusServiceUnavailable, "job execution is not configured")
		return
	}
	var body jobRequest
	if err := decodeStrict(r.Body, &body); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, err := body.validate()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.jobs.Submit(spec)
	if errors.Is(err, ErrQueueFull) {
		hint := s.jobs.RetryAfter(s.cfg.RetryAfter)
		w.Header().Set("Retry-After", strconv.Itoa(int(hint.Seconds())))
		s.fail(w, http.StatusTooManyRequests, "job queue is full; retry later")
		return
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusAccepted
	if job.State == JobDone { // cache hit
		code = http.StatusOK
	}
	s.writeJSON(w, code, job)
}

// handleJobList lists all jobs.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.fail(w, http.StatusServiceUnavailable, "job execution is not configured")
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

// handleJobGet reports one job's state and progress.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.fail(w, http.StatusServiceUnavailable, "job execution is not configured")
		return
	}
	job, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, job)
}

// handleJobResult returns a finished job's dataset; 409 while unfinished.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.fail(w, http.StatusServiceUnavailable, "job execution is not configured")
		return
	}
	res, job, err := s.jobs.Result(r.PathValue("id"))
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	if res == nil {
		s.fail(w, http.StatusConflict, "job %s is %s; no result yet", job.ID, job.State)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// handleJobCancel cancels a job.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.fail(w, http.StatusServiceUnavailable, "job execution is not configured")
		return
	}
	job, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, job)
}

// handleHealthz: liveness — the process serves requests.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz: readiness — flips to 503 once shutdown starts so load
// balancers drain before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.fail(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"trainedPairs": s.reg.Len(),
		"queuedJobs":   s.queueDepth(),
		"runningJobs":  s.runningJobs(),
	})
}

func (s *Server) queueDepth() int {
	if s.jobs == nil {
		return 0
	}
	return s.jobs.QueueDepth()
}

func (s *Server) runningJobs() int {
	if s.jobs == nil {
		return 0
	}
	return s.jobs.Running()
}

// handleMetrics renders the Prometheus exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}
