// Package bench is mosperf, the repository's benchmark: four workloads that
// each set up, sweep, and serve the way a user of Mosaic does, with every
// output checked and every end-to-end metric printed by name and unit. A
// traced run adds per-layer metrics: spans recorded around the benchmark's
// own calls into each layer, and a cost stack that replays streams recorded
// from the workload through the translator, TLB, walker, cache hierarchy,
// and whole engines one layer at a time.
//
// The benchmark drives the simulator and the service only through their
// public functions and the real mosd binary; see README.md for the metric
// and workload catalog.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"
)

// Def describes one metric of the catalog.
type Def struct {
	Name, Unit string
	// Better is "lower" or "higher".
	Better string
}

// EndToEnd lists the metrics an untraced run prints: what a user of the
// system waits for or pays. Every workload measures every one of them.
var EndToEnd = []Def{
	{"setup_s", "s", "lower"},
	{"sweep_s", "s", "lower"},
	{"sim_maccess_per_s", "Maccess/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"predict_cpu_us", "us", "lower"},
}

// PerLayer lists the metrics a traced run prints: one layer each, plus the
// predict latencies and capacity, which a shared host cannot repeat closely
// enough to gate.
var PerLayer = []Def{
	{"predict_p50_ms", "ms", "lower"},
	{"predict_p99_ms", "ms", "lower"},
	{"predict_max_rps", "1/s", "higher"},
	{"trace.load_ns_per_access", "ns", "lower"},
	{"workloads.generate_s", "s", "lower"},
	{"mem.translate_ns", "ns", "lower"},
	{"tlb.lookup_ns", "ns", "lower"},
	{"tlb.walk_rate", "ratio", "lower"},
	{"walker.walk_ns", "ns", "lower"},
	{"walker.refs_per_walk", "count", "lower"},
	{"walker.pwc_hit_ratio", "ratio", "higher"},
	{"cache.access_ns", "ns", "lower"},
	{"cache.l1_hit_ratio", "ratio", "higher"},
	{"cache.walker_load_share", "ratio", "lower"},
	{"partialsim.ns_per_access", "ns", "lower"},
	{"partialsim.hifi_ns_per_access", "ns", "lower"},
	{"cpu.ns_per_access", "ns", "lower"},
	{"cpu.timing_ns_per_access", "ns", "lower"},
	{"experiment.plan_s", "s", "lower"},
	{"experiment.space_s", "s", "lower"},
	{"experiment.space_count", "count", "lower"},
	{"sim.replay_busy_s", "s", "lower"},
	{"sim.replay_efficiency", "ratio", "higher"},
	{"sim.sampled_measured_frac", "ratio", "lower"},
	{"models.fit_ms", "ms", "lower"},
	{"registry.predict_ns", "ns", "lower"},
	{"serve.batcher_predict_us", "us", "lower"},
	{"serve.batch_size_mean", "count", "higher"},
	{"serve.predict_server_ms", "ms", "lower"},
	{"serve.http_overhead_ms", "ms", "lower"},
	{"bench.generator_lag_p99_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.host_slowdown", "ratio", "lower"},
}

// Workload names one workload and why it is in the benchmark.
type Workload struct {
	Name, Why string
}

// Workloads is the benchmark's workload catalog.
var Workloads = []Workload{
	{"sweep-walk", "gups/8GB + spec06/mcf, Standard, exact: half of all accesses walk at 4KB, so walker, PWCs, walker cache fills dominate; sweep_s is one CollectAll; predicts hit its fitted models"},
	{"sweep-index", "B+-tree zipf + LSM load/compact, phased: 1-6% of accesses walk, so TLB hits, translator, cache, timing model dominate; sweep_s is one CollectAll; predicts hit its fitted models"},
	{"sweep-sampled", "the sweep-walk pair x32, default sampling, Quick: planning, warm-up, trace set-up dominate, not the exact kernel; sweep_s is one CollectAll; predicts hit its fitted models"},
	{"serve-mixed", "mosd under open-loop predicts, then rounds of 12 training jobs: batcher, HTTP, scheduler contention; sweep_s is one job submit-to-done, sim_maccess_per_s per round makespan"},
}

// Options configures one workload run.
type Options struct {
	Workload string
	Seed     int64
	// Budget is how long the run measures.
	Budget time.Duration
	// Trace selects a traced run, which prints per-layer metrics.
	Trace bool
	// Small shrinks every workload to its minimum size (one sweep
	// iteration, the Quick protocol, one one-second rate rung) for tests.
	Small bool
	// WorkDir is a directory the run may fill with its files (the caller
	// removes it), SpanDir where a traced run writes
	// spans-<workload>.json, and Mosd the mosd binary.
	WorkDir, SpanDir, Mosd string
}

// Value is one measured number.
type Value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is one workload run's outcome.
type Report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest is the FNV-1a hash of every counter and phase row the run's
	// sweeps produced; it does not depend on the seed.
	Digest  string  `json:"digest"`
	Metrics []Value `json:"metrics"`
	// Detail holds numbers printed for people but not gated: set-up parts,
	// per-rung latencies, sweep and job-round counts, job makespans.
	Detail []Value `json:"detail,omitempty"`
	Host   *Host   `json:"host,omitempty"`
}

// Correct reports whether every checked output matched.
func (r *Report) Correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// Run executes one workload in this process.
func Run(o Options) (*Report, error) {
	r := &run{
		o:    o,
		rep:  &Report{Workload: o.Workload, Seed: o.Seed, Traced: o.Trace},
		vals: make(map[string]float64),
		rng:  rand.New(rand.NewSource(o.Seed)),
	}
	if o.Trace {
		r.rec = NewRecorder()
	}
	var err error
	switch o.Workload {
	case "sweep-walk", "sweep-index", "sweep-sampled":
		err = runSweep(r, sweepSpecFor(o.Workload, o.Small))
	case "serve-mixed":
		err = runServe(r)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q", o.Workload)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", o.Workload, err)
	}
	if o.Trace {
		if err := r.rec.Save(filepath.Join(o.SpanDir, "spans-"+o.Workload+".json")); err != nil {
			return nil, fmt.Errorf("bench: saving spans: %w", err)
		}
	}
	return r.rep, r.finish()
}

// run accumulates one workload run's checks and metrics.
type run struct {
	o    Options
	rep  *Report
	rec  *Recorder // nil when untraced
	vals map[string]float64
	rng  *rand.Rand
}

// maxFailures bounds the failure messages a report keeps.
const maxFailures = 8

// op counts one attempted operation and, when it failed, the failure.
func (r *run) op(ok bool, format string, args ...any) {
	r.rep.Attempted++
	if ok {
		return
	}
	r.rep.Failed++
	if len(r.rep.Failures) < maxFailures {
		r.rep.Failures = append(r.rep.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

func (r *run) detail(name, unit string, v float64) {
	r.rep.Detail = append(r.rep.Detail, Value{Name: name, Value: v, Unit: unit})
}

// finish fills the report's metrics from the catalog the run's mode
// prints. A catalog metric the workload did not measure is a bug.
func (r *run) finish() error {
	defs := EndToEnd
	if r.o.Trace {
		defs = PerLayer
	}
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok {
			return fmt.Errorf("bench: %s did not measure %s", r.o.Workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bench: %s measured %s = %v", r.o.Workload, d.Name, v)
		}
		r.rep.Metrics = append(r.rep.Metrics, Value{Name: d.Name, Value: v, Unit: d.Unit})
	}
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
