// Package experiment orchestrates the paper's measurement pipeline
// (§VI): generate each workload's trace once through the allocation stack,
// build the 54-layout protocol from a simulated-PEBS miss profile, replay
// the trace on each platform under each layout, and evaluate all nine
// runtime models on the resulting samples.
//
// Measurement runs as a staged pipeline on the simulation-engine layer
// (internal/sim): prepare (trace generation, once per workload) → plan
// (miss profile + layout protocol, once per workload-platform pair) →
// space (address-space construction, once per distinct layout
// configuration, shared read-only across platforms) → replay (pooled
// engines over a sweep-wide worker pool).
package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"mosaic/internal/arch"
	"mosaic/internal/binfmt"
	"mosaic/internal/layout"
	"mosaic/internal/libc"
	"mosaic/internal/mem"
	"mosaic/internal/mosalloc"
	"mosaic/internal/partialsim"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
	"mosaic/internal/trace"
	"mosaic/internal/workloads"
)

// physMem is the simulated physical memory per replay process: generous,
// since 1GB-page layouts round pools up to 1GB each.
const physMem = 1 << 36

// Protocol selects how many layouts Collect measures.
type Protocol int

// Protocols.
const (
	// Standard is the paper's 54-layout protocol (§VI-B).
	Standard Protocol = iota
	// Quick uses only the 9 growing-window layouts — for tests and smoke
	// runs.
	Quick
	// Extended uses ~102 layouts, the larger sample sets the paper needed
	// for cross-validation to converge (§VI-C).
	Extended
)

// WorkloadData caches one workload's generated trace and pool usage.
type WorkloadData struct {
	Workload workloads.Workload
	Trace    *trace.Trace
	Target   layout.Target
}

// Runner coordinates the pipeline, caching traces, datasets, and engines.
type Runner struct {
	mu       sync.Mutex
	prepared map[string]*WorkloadData
	datasets map[string]*Dataset
	// engines pools full machines and partial simulators per platform so
	// replays reuse TLB/cache/walker allocations instead of rebuilding them.
	engines sim.Pool
	// timing accumulates per-stage wall time across the runner's lifetime.
	timing sim.Timing
	// measuredAccesses/totalAccesses accumulate sampled-replay coverage
	// across every replay of the runner's lifetime (zero under exact
	// replay); SampledProgress reads them for live progress reporting.
	measuredAccesses atomic.Uint64
	totalAccesses    atomic.Uint64
	// Parallelism bounds concurrent pipeline jobs (default: GOMAXPROCS).
	Parallelism int
	// Sampling, when enabled, replays every measurement under systematic
	// interval sampling with functional warmup (see sim.Sampling); counters
	// in the resulting datasets are extrapolated whole-trace estimates. The
	// zero value is exact replay.
	Sampling sim.Sampling
	// Proto selects the layout protocol.
	Proto Protocol
	// TraceDir, when set, caches generated traces (and their layout
	// targets) on disk so repeated sessions skip workload generation.
	TraceDir string
}

// NewRunner builds a runner with the standard protocol.
func NewRunner() *Runner {
	return &Runner{
		prepared:    make(map[string]*WorkloadData),
		datasets:    make(map[string]*Dataset),
		Parallelism: runtime.GOMAXPROCS(0),
		Proto:       Standard,
	}
}

// StageTimes returns the per-stage pipeline timing accumulated so far
// (prepare / plan / space / replay).
func (r *Runner) StageTimes() []sim.StageTime { return r.timing.Snapshot() }

// SampledProgress returns the accesses measured at full fidelity and the
// accesses skipped (warmed or jumped over) across every replay so far.
// Both are zero under exact replay, where coverage isn't tracked.
func (r *Runner) SampledProgress() (measured, skipped uint64) {
	measured = r.measuredAccesses.Load()
	total := r.totalAccesses.Load()
	return measured, total - measured
}

// PoolIdle reports the engines currently sitting idle in the runner's
// engine pool — the serving layer's pool-occupancy gauge reads it.
func (r *Runner) PoolIdle() int { return r.engines.Idle() }

// Prepare generates (once) the workload's trace under an all-4KB Mosalloc
// configuration and derives the layout target from the pool high-water
// marks. With TraceDir set, traces are persisted and reloaded across
// sessions.
func (r *Runner) Prepare(w workloads.Workload) (*WorkloadData, error) {
	r.mu.Lock()
	if wd, ok := r.prepared[w.Name()]; ok {
		r.mu.Unlock()
		return wd, nil
	}
	r.mu.Unlock()

	if wd, err := r.loadCached(w); err == nil && wd != nil {
		r.mu.Lock()
		r.prepared[w.Name()] = wd
		r.mu.Unlock()
		return wd, nil
	}

	var wd *WorkloadData
	err := r.timing.Time(sim.StagePrepare, func() error {
		var err error
		wd, err = r.generate(w)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := r.saveCached(wd); err != nil {
		return nil, err
	}
	r.mu.Lock()
	// Another goroutine may have prepared the workload concurrently; keep
	// the first stored value so callers share one WorkloadData.
	if prev, ok := r.prepared[w.Name()]; ok {
		wd = prev
	} else {
		r.prepared[w.Name()] = wd
	}
	r.mu.Unlock()
	return wd, nil
}

// generate runs the prepare stage: one traced execution of the workload
// against the allocation stack under an all-4KB configuration.
func (r *Runner) generate(w workloads.Workload) (*WorkloadData, error) {
	proc, err := libc.NewProcess(physMem)
	if err != nil {
		return nil, err
	}
	heapCap, anonCap := w.PoolBytes()
	cfg := mosalloc.Config{
		HeapPool:      mosalloc.Uniform(mem.Page4K, heapCap),
		AnonPool:      mosalloc.Uniform(mem.Page4K, anonCap),
		FilePoolBytes: 1 << 20,
	}
	msl, err := mosalloc.Attach(proc, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", w.Name(), err)
	}
	tr, err := w.Generate(workloads.NewAllocator(proc))
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", w.Name(), err)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}

	var heapUsed, anonUsed uint64
	for _, u := range msl.Usage() {
		// Round usage up to 2MB so window arithmetic stays aligned.
		hw := uint64(mem.AlignUp(mem.Addr(u.HighWater), mem.Page2M))
		switch u.Name {
		case "heap":
			heapUsed = hw
		case "anon":
			anonUsed = hw
		}
	}
	wd := &WorkloadData{
		Workload: w,
		Trace:    tr,
		Target: layout.Target{
			HeapUsed: heapUsed,
			AnonUsed: anonUsed,
			HeapCap:  heapCap,
			AnonCap:  anonCap,
		},
	}
	if err := wd.Target.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", w.Name(), err)
	}
	return wd, nil
}

// cachePaths returns the trace and sidecar file names for a workload. The
// sanitized name alone is ambiguous ("a/b" and "a_b" collide), so an
// FNV-1a hash of the full name disambiguates the file stem.
func (r *Runner) cachePaths(name string) (traceFile, targetFile string) {
	safe := strings.NewReplacer("/", "_", " ", "_").Replace(name)
	stem := fmt.Sprintf("%s-%08x", safe, uint32(binfmt.FNV1a(name)))
	return filepath.Join(r.TraceDir, stem+".mostrace"),
		filepath.Join(r.TraceDir, stem+".target.json")
}

// loadCached restores a workload's trace and target from TraceDir.
// A nil, nil return means no usable cache entry exists.
func (r *Runner) loadCached(w workloads.Workload) (*WorkloadData, error) {
	if r.TraceDir == "" {
		return nil, nil
	}
	traceFile, targetFile := r.cachePaths(w.Name())
	tr, err := trace.Load(traceFile)
	if err != nil {
		return nil, nil // absent or corrupt: regenerate
	}
	if tr.Name != w.Name() {
		return nil, nil // foreign trace under a colliding file name
	}
	raw, err := os.ReadFile(targetFile)
	if err != nil {
		return nil, nil
	}
	var target layout.Target
	if err := json.Unmarshal(raw, &target); err != nil {
		return nil, nil
	}
	if err := target.Validate(); err != nil {
		return nil, nil
	}
	return &WorkloadData{Workload: w, Trace: tr, Target: target}, nil
}

// saveCached persists a freshly generated trace and target to TraceDir.
func (r *Runner) saveCached(wd *WorkloadData) error {
	if r.TraceDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.TraceDir, 0o755); err != nil {
		return err
	}
	traceFile, targetFile := r.cachePaths(wd.Workload.Name())
	if err := wd.Trace.Save(traceFile); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(wd.Target, "", "  ")
	if err != nil {
		return err
	}
	return binfmt.WriteFileAtomic(targetFile, 0o644, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

// buildSpace runs the address-space stage for one layout: a modelled
// process with Mosalloc attached under the layout's pool configuration.
func (r *Runner) buildSpace(lay layout.Layout) (*mem.AddressSpace, error) {
	var space *mem.AddressSpace
	err := r.timing.Time(sim.StageSpace, func() error {
		var err error
		space, err = sim.BuildSpace(physMem, lay.Cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: layout %s: %w", lay.Name, err)
	}
	return space, nil
}

// replay runs the replay stage for one layout: one pooled full machine
// replays the trace over the layout's space under the given sampling
// config. plat must already be Scaled.
func (r *Runner) replay(wd *WorkloadData, plat arch.Platform, lay layout.Layout, space *mem.AddressSpace, s sim.Sampling) (sim.Result, error) {
	eng, err := r.engines.Full(plat, space)
	if err != nil {
		return sim.Result{}, err
	}
	var res sim.Result
	err = r.timing.Time(sim.StageReplay, func() error {
		var err error
		res, err = eng.RunSampled(wd.Trace, s)
		return err
	})
	if err != nil {
		// A faulted engine is dropped rather than pooled.
		return sim.Result{}, fmt.Errorf("experiment: %s on %s under %s: %w",
			wd.Workload.Name(), plat.Name, lay.Name, err)
	}
	r.engines.Put(eng)
	r.measuredAccesses.Add(res.MeasuredAccesses)
	r.totalAccesses.Add(res.TotalAccesses)
	return res, nil
}

// RunLayout replays the workload's trace on the platform under one layout
// and returns the counters — one experimental sample.
// Platforms are applied in their Scaled() form (see arch.Platform.Scaled)
// so hardware reach matches the scaled workload footprints.
func (r *Runner) RunLayout(wd *WorkloadData, plat arch.Platform, lay layout.Layout) (pmu.Counters, error) {
	plat = plat.Scaled()
	space, err := r.buildSpace(lay)
	if err != nil {
		return pmu.Counters{}, err
	}
	res, err := r.replay(wd, plat, lay, space, r.Sampling)
	return res.Counters, err
}

// PartialSimulate replays the workload's trace through the partial
// simulator (TLB + walker + PWCs only, no timing) on the platform under
// one layout — the paper's Figure 1 left box. With highFidelity the
// program's data accesses also stream through the cache model, making the
// walk-cycle count match the full machine exactly (§VII-D's "perfectly
// accurate partial simulator").
func (r *Runner) PartialSimulate(wd *WorkloadData, plat arch.Platform, lay layout.Layout, highFidelity bool) (partialsim.Metrics, error) {
	plat = plat.Scaled()
	space, err := r.buildSpace(lay)
	if err != nil {
		return partialsim.Metrics{}, err
	}
	eng, err := r.engines.Partial(plat, space)
	if err != nil {
		return partialsim.Metrics{}, err
	}
	eng.HighFidelity = highFidelity
	var res sim.Result
	err = r.timing.Time(sim.StageReplay, func() error {
		var err error
		res, err = eng.RunSampled(wd.Trace, r.Sampling)
		return err
	})
	if err != nil {
		return partialsim.Metrics{}, err
	}
	r.engines.Put(eng)
	r.measuredAccesses.Add(res.MeasuredAccesses)
	r.totalAccesses.Add(res.TotalAccesses)
	return partialsim.Metrics{
		H:        res.Counters.H,
		M:        res.Counters.M,
		C:        res.Counters.C,
		Lookups:  res.Counters.TLBLookups,
		WalkRefs: res.WalkRefs,
	}, nil
}

// Dataset holds every measurement for one (workload, platform) pair.
type Dataset struct {
	Workload string
	Platform string
	// Samples are the protocol layouts' measurements, in layout order;
	// the 4KB and 2MB baselines carry those layout names.
	Samples []pmu.Sample
	// Counters maps layout name to the full counter set.
	Counters map[string]pmu.Counters
	// Sample1G is the 1GB-pages validation point (§VII-D).
	Sample1G pmu.Sample
	// TLBSensitive is the paper's inclusion criterion: runtime improves
	// by ≥5% when backed with 1GB pages.
	TLBSensitive bool
	// MeasuredAccesses and TotalAccesses record the sampled-replay coverage
	// behind each layout's counters (identical across the pair's layouts —
	// the schedule is positional over the shared trace). Both are zero under
	// exact replay; when MeasuredAccesses < TotalAccesses the counters are
	// extrapolated estimates.
	MeasuredAccesses uint64
	TotalAccesses    uint64
	// Phases maps layout name to per-phase counter attribution when the
	// pair's trace carried phase markers (multi-phase workloads); nil
	// otherwise. Rows are in trace order, mirroring sim.Result.Phases.
	Phases map[string][]sim.PhaseResult
}

// Baseline returns the sample with the given layout name.
func (d *Dataset) Baseline(name string) (pmu.Sample, bool) {
	for _, s := range d.Samples {
		if s.Layout == name {
			return s, true
		}
	}
	return pmu.Sample{}, false
}

// Collect measures the full protocol for one workload on one platform,
// caching the result. It is CollectAll over a single pair: layout replays
// share the sweep-wide worker pool, engine pool, and space cache.
func (r *Runner) Collect(w workloads.Workload, plat arch.Platform) (*Dataset, error) {
	dss, err := r.CollectAll([]workloads.Workload{w}, []arch.Platform{plat}, nil)
	if err != nil {
		return nil, err
	}
	return dss[0], nil
}

// pairPlan tracks one (workload, platform) dataset through the sweep: its
// replay span is filled in by the plan stage and replayed by the replay
// stage.
type pairPlan struct {
	w workloads.Workload
	replaySpan
}

// CollectAll measures every (workload, platform) dataset through one
// sweep-wide scheduler and returns them in (platform-major, workload-minor)
// order. The pipeline runs in stages: prepare traces (parallel across
// workloads), plan protocols (parallel across pairs), then flatten every
// (workload, platform, layout) replay into one bounded worker pool.
// Address spaces are built once per distinct layout configuration and
// shared read-only across the platforms that replay it; engines are pooled
// and Reset between replays. onProgress, when non-nil, receives progress
// reports (with ETA) after each completed job of each stage.
//
// Results are bit-identical to collecting each pair in isolation at any
// parallelism: every replay runs on private (Reset) engine state over
// immutable shared translation state.
func (r *Runner) CollectAll(ws []workloads.Workload, plats []arch.Platform, onProgress func(sim.Progress)) ([]*Dataset, error) {
	return r.CollectAllCtx(context.Background(), ws, plats, onProgress)
}

// CollectAllCtx is CollectAll under a context: when ctx is canceled the
// sweep stops claiming new pipeline jobs (in-flight replays finish, so
// pooled engines and shared spaces are released consistently), no partial
// datasets are cached, and ctx's error is returned. The serving layer uses
// this for job cancellation and graceful shutdown.
func (r *Runner) CollectAllCtx(ctx context.Context, ws []workloads.Workload, plats []arch.Platform, onProgress func(sim.Progress)) ([]*Dataset, error) {
	workers := max(1, r.Parallelism)

	// Figure out which pairs still need measuring. Job order groups pairs
	// by workload so the layouts a workload shares across platforms stay
	// live in the space cache only while that workload's replays drain.
	var pending []*pairPlan
	seen := make(map[string]bool)
	for _, w := range ws {
		for _, p := range plats {
			key := w.Name() + "@" + p.Name
			if seen[key] {
				continue
			}
			seen[key] = true
			r.mu.Lock()
			_, have := r.datasets[key]
			r.mu.Unlock()
			if !have {
				pending = append(pending, &pairPlan{w: w, replaySpan: replaySpan{key: key, plat: p}})
			}
		}
	}

	// Stage 1: prepare — trace generation, once per distinct workload.
	var uws []workloads.Workload
	uniq := make(map[string]bool)
	for _, pair := range pending {
		if !uniq[pair.w.Name()] {
			uniq[pair.w.Name()] = true
			uws = append(uws, pair.w)
		}
	}
	sched := sim.Scheduler{Workers: workers, Stage: sim.StagePrepare.String(), OnProgress: onProgress, Ctx: ctx}
	err := sched.Run(len(uws),
		func(i int) string { return uws[i].Name() },
		func(i int) error { _, err := r.Prepare(uws[i]); return err })
	if err != nil {
		return nil, err
	}

	// Stage 2: plan — layout protocol per pair (Standard and Extended
	// profile the trace's TLB misses first).
	sched = sim.Scheduler{Workers: workers, Stage: sim.StagePlan.String(), OnProgress: onProgress, Ctx: ctx}
	err = sched.Run(len(pending),
		func(i int) string { return pending[i].key },
		func(i int) error {
			pair := pending[i]
			wd, err := r.Prepare(pair.w)
			if err != nil {
				return err
			}
			pair.wd = wd
			return r.timing.Time(sim.StagePlan, func() error {
				pair.lays = r.planLayouts(pair.wd, pair.plat, pair.key)
				pair.out = make([]sim.Result, len(pair.lays))
				return nil
			})
		})
	if err != nil {
		return nil, err
	}

	// Stage 3: replay — every (workload, platform) pair's layouts in one
	// flat worker pool (Runner.replayStage).
	spans := make([]replaySpan, len(pending))
	for i, pair := range pending {
		spans[i] = pair.replaySpan
	}
	if err := r.replayStage(ctx, spans, r.Sampling, onProgress); err != nil {
		return nil, err
	}

	// Assemble and cache the datasets.
	for _, pair := range pending {
		ds, err := assemble(pair.w.Name(), pair.plat.Name, pair.lays, pair.out)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		// Keep a dataset another caller may have stored concurrently.
		if prev, ok := r.datasets[pair.key]; ok {
			ds = prev
		} else {
			r.datasets[pair.key] = ds
		}
		r.mu.Unlock()
	}

	out := make([]*Dataset, 0, len(ws)*len(plats))
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range plats {
		for _, w := range ws {
			ds, ok := r.datasets[w.Name()+"@"+p.Name]
			if !ok {
				return nil, fmt.Errorf("experiment: dataset %s@%s missing after sweep", w.Name(), p.Name)
			}
			out = append(out, ds)
		}
	}
	return out, nil
}

// planLayouts generates the pair's protocol layouts plus the 1GB
// validation point. key seeds the protocol's randomized layouts.
func (r *Runner) planLayouts(wd *WorkloadData, plat arch.Platform, key string) []layout.Layout {
	var lays []layout.Layout
	switch r.Proto {
	case Quick:
		// The growing windows need no miss profile.
		lays = wd.Target.GrowingWindows(8)
	case Extended:
		lays = wd.Target.Extended(layout.ProfileMisses(wd.Trace, plat.Scaled().TLB, wd.Target), seedFor(key))
	default:
		lays = wd.Target.Standard(layout.ProfileMisses(wd.Trace, plat.Scaled().TLB, wd.Target), seedFor(key))
	}
	return append(lays, wd.Target.Baseline1G())
}

// ProtocolLayouts plans the pair's full layout protocol — the same
// deterministic sequence CollectAll would measure, ending with the 1GB
// validation point — without replaying anything. The adaptive planner
// uses it as the candidate pool.
func (r *Runner) ProtocolLayouts(wd *WorkloadData, plat arch.Platform) []layout.Layout {
	var lays []layout.Layout
	// Planning cost is charged to the plan stage like CollectAll's stage 2.
	_ = r.timing.Time(sim.StagePlan, func() error {
		lays = r.planLayouts(wd, plat, wd.Workload.Name()+"@"+plat.Name)
		return nil
	})
	return lays
}

// assemble folds per-layout replay results into a Dataset — CollectAll's
// final stage. lays and res correspond by index and must cover the full
// protocol including the 1GB validation point.
func assemble(workload, platform string, lays []layout.Layout, res []sim.Result) (*Dataset, error) {
	if len(lays) != len(res) {
		return nil, fmt.Errorf("experiment: assemble %s@%s: %d layouts but %d results",
			workload, platform, len(lays), len(res))
	}
	ds := &Dataset{
		Workload: workload,
		Platform: platform,
		Counters: make(map[string]pmu.Counters, len(lays)),
	}
	for i, lay := range lays {
		ds.Counters[lay.Name] = res[i].Counters
		sample := pmu.SampleFrom(lay.Name, res[i].Counters)
		if lay.Name == "1GB" {
			ds.Sample1G = sample
		} else {
			ds.Samples = append(ds.Samples, sample)
		}
		if res[i].Phases != nil {
			if ds.Phases == nil {
				ds.Phases = make(map[string][]sim.PhaseResult, len(lays))
			}
			ds.Phases[lay.Name] = res[i].Phases
		}
	}
	if len(res) > 0 {
		// Coverage is layout-independent (the window schedule is positional
		// over the pair's shared trace), so any layout's record stands for
		// the dataset.
		ds.MeasuredAccesses = res[0].MeasuredAccesses
		ds.TotalAccesses = res[0].TotalAccesses
	}
	s4k, ok := ds.Baseline("4KB")
	if !ok {
		return nil, fmt.Errorf("experiment: protocol produced no 4KB baseline")
	}
	ds.TLBSensitive = s4k.R > 0 && (s4k.R-ds.Sample1G.R)/s4k.R >= 0.05
	return ds, nil
}

// measureLayouts replays an arbitrary set of a pair's layouts at an
// explicit sampling fidelity (zero value = exact), independent of the
// runner's Sampling field, and returns the results in layout order. It is
// CollectAll's replay stage over a caller-chosen layout set: the same job
// shapes, shared address spaces, pooled engines — the
// adaptive planner uses it to mix cheap probe replays and exact
// promotions within one sweep. onProgress, when non-nil, receives replay
// progress reports.
func (r *Runner) measureLayouts(ctx context.Context, wd *WorkloadData, plat arch.Platform, lays []layout.Layout, s sim.Sampling, onProgress func(sim.Progress)) ([]sim.Result, error) {
	if len(lays) == 0 {
		return nil, nil
	}
	out := make([]sim.Result, len(lays))
	span := replaySpan{key: wd.Workload.Name() + "@" + plat.Name, wd: wd, plat: plat, lays: lays, out: out}
	if err := r.replayStage(ctx, []replaySpan{span}, s, onProgress); err != nil {
		return nil, err
	}
	return out, nil
}

// replaySpan is one pair's layouts to replay and the slice, index-aligned
// with lays, that receives their results.
type replaySpan struct {
	key  string // "workload@platform", the progress label prefix
	wd   *WorkloadData
	plat arch.Platform // unscaled; Scaled() at use sites
	lays []layout.Layout
	out  []sim.Result
}

// replayStage replays every span's layouts at sampling fidelity s in one
// flat worker pool with shared address spaces and pooled engines. A job is
// one distinct layout of one span: layouts whose pool configurations
// resolve to the same address space (sim.SpaceKey) replay the same trace on
// the same machine and space, so only the first of them is replayed; each
// later one receives a copy of its result once the pool drains.
func (r *Runner) replayStage(ctx context.Context, spans []replaySpan, s sim.Sampling, onProgress func(sim.Progress)) error {
	spaces := sim.NewSpaceCache(physMem)
	spaces.Timing = &r.timing
	type job struct {
		span     *replaySpan
		idx      int    // the layout the job replays
		spaceKey string // its registered space
	}
	type alias struct {
		span     *replaySpan
		dst, src int // layout dst takes layout src's result
	}
	var jobs []job
	var aliases []alias
	for i := range spans {
		sp := &spans[i]
		first := make(map[string]int, len(sp.lays))
		for k, lay := range sp.lays {
			key := sim.SpaceKey(lay.Cfg)
			if src, ok := first[key]; ok {
				aliases = append(aliases, alias{span: sp, dst: k, src: src})
				continue
			}
			first[key] = k
			jobs = append(jobs, job{span: sp, idx: k, spaceKey: spaces.Register(lay.Cfg)})
		}
	}
	sched := sim.Scheduler{Workers: max(1, r.Parallelism), Stage: sim.StageReplay.String(), OnProgress: onProgress, Ctx: ctx}
	err := sched.Run(len(jobs),
		func(i int) string {
			j := jobs[i]
			return j.span.key + "/" + j.span.lays[j.idx].Name
		},
		func(i int) error {
			j := jobs[i]
			defer spaces.Release(j.spaceKey)
			lay := j.span.lays[j.idx]
			space, err := spaces.Get(j.spaceKey, lay.Cfg)
			if err != nil {
				return fmt.Errorf("experiment: layout %s: %w", lay.Name, err)
			}
			res, err := r.replay(j.span.wd, j.span.plat.Scaled(), lay, space, s)
			if err != nil {
				return err
			}
			j.span.out[j.idx] = res
			return nil
		})
	if err != nil {
		return err
	}
	for _, a := range aliases {
		res := a.span.out[a.src]
		res.Phases = slices.Clone(res.Phases)
		a.span.out[a.dst] = res
	}
	return nil
}

// PairMeasurer binds one (workload, platform) pair of a Runner into a
// layout-at-a-time measurement surface: Measure replays layouts at an
// explicit fidelity, TraceLen reports what one exact replay costs in
// accesses. internal/plan consumes it (structurally) as the substrate its
// active-learning loop spends budget against.
type PairMeasurer struct {
	R    *Runner
	WD   *WorkloadData
	Plat arch.Platform
	// OnProgress, when non-nil, receives replay progress from every
	// Measure call.
	OnProgress func(sim.Progress)
}

// Measure replays lays at sampling fidelity s and returns the results in
// layout order.
func (p *PairMeasurer) Measure(ctx context.Context, lays []layout.Layout, s sim.Sampling) ([]sim.Result, error) {
	return p.R.measureLayouts(ctx, p.WD, p.Plat, lays, s, p.OnProgress)
}

// TraceLen is the pair's trace length in accesses — the cost of one exact
// layout replay.
func (p *PairMeasurer) TraceLen() uint64 { return uint64(p.WD.Trace.Len()) }

// seedFor derives a stable seed from a dataset key.
func seedFor(key string) int64 {
	return int64(binfmt.FNV1a(key) & 0x7fffffffffffffff)
}
