package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/layout"
	"mosaic/internal/pmu"
	"mosaic/internal/serve/registry"
	"mosaic/internal/sim"
	"mosaic/internal/workloads"
)

// physMem is the simulated physical memory the experiment pipeline gives
// every replay. Frame placement, and so every counter, depends on it, so
// replays that must equal a sweep's use the same value.
const physMem = 1 << 36

// setupReps is how many times a run repeats its set-up; setup_s reports
// the median.
const setupReps = 3

// mixSize is how many distinct predict requests a run draws; traffic
// cycles through them.
const mixSize = 4096

// sweepSpec is what a sweep workload measures.
type sweepSpec struct {
	names    []string
	stretch  int
	proto    experiment.Protocol
	sampling sim.Sampling
}

func sweepSpecFor(name string, small bool) sweepSpec {
	s := sweepSpec{names: []string{"gups/8GB", "spec06/mcf"}, stretch: 1, proto: experiment.Standard}
	switch name {
	case "sweep-index":
		s.names = []string{"dbindex/btree-point-zipf", "dbindex/lsm-loadcompact"}
	case "sweep-sampled":
		s.stretch, s.proto, s.sampling = 32, experiment.Quick, sim.DefaultSampling
	}
	if small {
		s.proto = experiment.Quick
		s.stretch = min(s.stretch, 4)
	}
	return s
}

// workloadsByName resolves names to fresh workloads, stretched by factor.
func workloadsByName(names []string, factor int) ([]workloads.Workload, error) {
	ws := make([]workloads.Workload, 0, len(names))
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		ws = append(ws, workloads.Stretched(w, factor))
	}
	return ws, nil
}

// prepareTraces generates the workloads' traces into dir through a fresh
// runner, then loads them back through another, as a later run would.
func prepareTraces(ws []workloads.Workload, dir string) (gen, load time.Duration, wds []*experiment.WorkloadData, err error) {
	g := experiment.NewRunner()
	g.TraceDir = dir
	t0 := time.Now()
	for _, w := range ws {
		if _, err := g.Prepare(w); err != nil {
			return 0, 0, nil, err
		}
	}
	gen = time.Since(t0)
	l := experiment.NewRunner()
	l.TraceDir = dir
	t1 := time.Now()
	for _, w := range ws {
		wd, err := l.Prepare(w)
		if err != nil {
			return 0, 0, nil, err
		}
		wds = append(wds, wd)
	}
	return gen, time.Since(t1), wds, nil
}

// iteration is one measured sweep.
type iteration struct {
	wall    time.Duration
	cal     float64 // wall, calibrated to the reference host speed, in seconds
	dss     []*experiment.Dataset
	stages  []sim.StageTime
	digest  string
	covered float64 // trace accesses the sweep's replays covered
}

// stage returns the iteration's aggregate for one pipeline stage.
func (it iteration) stage(s sim.Stage) sim.StageTime {
	for _, st := range it.stages {
		if st.Stage == s {
			return st
		}
	}
	return sim.StageTime{Stage: s}
}

// sweepOnce runs one sweep on a fresh runner over the cached traces. A
// traced sweep records its span and one child span per pipeline stage,
// observed through the scheduler's progress reports.
func (r *run) sweepOnce(spec sweepSpec, ws []workloads.Workload, traceDir string, lens map[string]int, traced bool, label string) (iteration, error) {
	runner := experiment.NewRunner()
	runner.TraceDir, runner.Proto, runner.Sampling = traceDir, spec.proto, spec.sampling
	var onProgress func(sim.Progress)
	span := 0
	if traced {
		span = r.rec.Begin("experiment.CollectAll", label, 0)
		onProgress = r.stageSpans(span, label)
	}
	t0 := time.Now()
	dss, err := runner.CollectAll(ws, arch.Experimental, onProgress)
	wall := time.Since(t0)
	if traced {
		onProgress(sim.Progress{}) // closes the last stage's span
		r.rec.End(span)
	}
	if err != nil {
		return iteration{}, err
	}
	it := iteration{wall: wall, dss: dss, stages: runner.StageTimes()}
	for _, ds := range dss {
		it.covered += float64(len(ds.Counters) * lens[ds.Workload])
	}
	it.digest, err = datasetsDigest(dss)
	return it, err
}

// stageSpans turns the scheduler's serial progress reports into one span
// per pipeline stage, from the stage's start to its last completed job. A
// report with an empty stage closes the open span.
func (r *run) stageSpans(parent int, label string) func(sim.Progress) {
	var stage string
	var start, last time.Time
	return func(p sim.Progress) {
		now := time.Now()
		if p.Stage != stage {
			if stage != "" {
				r.rec.Record("stage."+stage, label, parent, start, last)
			}
			stage, start = p.Stage, now.Add(-p.Elapsed)
		}
		last = now
	}
}

// datasetsDigest hashes every counter, phase row and coverage count of the
// datasets, in the sweep's order, with FNV-1a.
func datasetsDigest(dss []*experiment.Dataset) (string, error) {
	h := fnv.New64a()
	for _, ds := range dss {
		raw, err := json.Marshal(struct {
			Workload, Platform string
			Counters           map[string]pmu.Counters
			Phases             map[string][]sim.PhaseResult
			Measured, Total    uint64
		}{ds.Workload, ds.Platform, ds.Counters, ds.Phases, ds.MeasuredAccesses, ds.TotalAccesses})
		if err != nil {
			return "", err
		}
		h.Write(raw)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// runSweep measures a sweep workload: set-up, sweeps until the budget
// leaves room for the predict ladder, then the ladder against mosd serving
// the models fitted on the workload's own sweep.
func runSweep(r *run, spec sweepSpec) error {
	o := r.o
	ws, err := workloadsByName(spec.names, spec.stretch)
	if err != nil {
		return err
	}
	ref, err := newRefKernel()
	if err != nil {
		return err
	}
	setupRef := ref.measure()

	// Set-up, part 1: trace generation into an empty directory, save, and
	// load, repeated.
	var prep, gens []float64
	var traceDir string
	var wds []*experiment.WorkloadData
	for k := 0; k < setupReps; k++ {
		traceDir = filepath.Join(o.WorkDir, "traces-"+strconv.Itoa(k))
		var gen, load time.Duration
		gen, load, wds, err = prepareTraces(ws, traceDir)
		if err != nil {
			return err
		}
		prep = append(prep, (gen + load).Seconds())
		gens = append(gens, gen.Seconds())
	}
	lens := make(map[string]int, len(wds))
	for _, wd := range wds {
		lens[wd.Workload.Name()] = wd.Trace.Len()
	}

	// Part 2: one warm-up sweep, whose datasets train the served models.
	warm, err := r.sweepOnce(spec, ws, traceDir, lens, false, "warmup")
	if err != nil {
		return err
	}

	// Part 3: fit and persist the models, start mosd on them, repeated.
	var serveSetup []float64
	var d *daemon
	var regDir string
	for k := 0; k < setupReps; k++ {
		dir := filepath.Join(o.WorkDir, "mosd-"+strconv.Itoa(k))
		regDir = filepath.Join(dir, "registry")
		t0 := time.Now()
		reg, err := registry.Open(regDir)
		if err != nil {
			return err
		}
		for _, ds := range warm.dss {
			if err := reg.Train(ds, nil); err != nil {
				return err
			}
		}
		if d, err = startDaemon(o.Mosd, dir, "-registry", regDir); err != nil {
			return err
		}
		serveSetup = append(serveSetup, time.Since(t0).Seconds())
		if k < setupReps-1 {
			d.stop()
		}
	}
	defer d.stop()
	setup := median(prep) + warm.wall.Seconds() + median(serveSetup)
	prevRef := ref.measure()
	r.set("setup_s", setup*calibration(setupRef, prevRef))
	r.detail("setup_s.raw", "s", setup)
	r.set("workloads.generate_s", median(gens))
	r.detail("setup.traces_s", "s", median(prep))
	r.detail("setup.warmup_sweep_s", "s", warm.wall.Seconds())
	r.detail("setup.serve_s", "s", median(serveSetup))

	// Sweeps, alternating traced and untraced in a traced run, each followed
	// by a reference kernel measurement.
	rungs := predictRungs(o.Small, o.Trace, 1100)
	budget := o.Budget - ladderBudget(rungs)
	minIters := 1
	if r.rec != nil {
		minIters = 2 // one traced and one untraced, for the tracing overhead
	}
	var its []iteration
	var traced, plain []float64
	start := time.Now()
	for i := 0; ; i++ {
		on := r.rec != nil && i%2 == 0
		it, err := r.sweepOnce(spec, ws, traceDir, lens, on, "sweep-"+strconv.Itoa(i))
		if err != nil {
			return err
		}
		next := ref.measure()
		it.cal = it.wall.Seconds() * calibration(prevRef, next)
		prevRef = next
		r.op(it.digest == warm.digest, "sweep %d digest %s differs from the warm-up's %s", i, it.digest, warm.digest)
		its = append(its, it)
		if on {
			traced = append(traced, it.cal)
		} else {
			plain = append(plain, it.cal)
		}
		if o.Small || len(its) >= minIters && time.Since(start)+it.wall > budget {
			break
		}
	}
	r.rep.Digest = warm.digest
	r.recordSweeps(its)
	r.set("bench.host_slowdown", ref.slowdown())
	r.detail("sweeps", "count", float64(len(its)))
	overhead := 0.0
	if len(traced) > 0 && len(plain) > 0 {
		overhead = 100 * (median(traced)/median(plain) - 1)
	}
	r.set("bench.trace_overhead_pct", overhead)

	// The predict ladder against the served models.
	reg, err := registry.Open(regDir)
	if err != nil {
		return err
	}
	cases, err := requestMix(reg, r.rng, mixSize)
	if err != nil {
		return err
	}
	g := newGenerator(d.base, cases, o.Seed, r.rec)
	lr, err := r.runLadder(g, d, rungs)
	g.close()
	if err != nil {
		return err
	}
	r.recordPredict(lr, calibration(prevRef, ref.measure()))

	// Output checks: one seeded layout per pair replayed solo.
	pairs, err := sweepPairs(spec, ws, traceDir, warm.dss)
	if err != nil {
		return err
	}
	if err := r.spotCheck(pairs, spec.sampling); err != nil {
		return err
	}
	if r.rec != nil {
		if err := r.layerProbes(pairs, spec.sampling, warm.dss, reg, cases); err != nil {
			return err
		}
	}
	r.set("peak_rss_mb", peakRSSMB()-ref.residentMB())
	return nil
}

// recordSweeps sets the sweep metrics from the measured iterations.
func (r *run) recordSweeps(its []iteration) {
	var raw, walls, rates, plan, space, spaces, busy, eff []float64
	for _, it := range its {
		raw = append(raw, it.wall.Seconds())
		walls = append(walls, it.cal)
		rates = append(rates, it.covered/it.cal/1e6)
		plan = append(plan, it.stage(sim.StagePlan).Total.Seconds())
		sp := it.stage(sim.StageSpace)
		space = append(space, sp.Total.Seconds())
		spaces = append(spaces, float64(sp.Count))
		rb := it.stage(sim.StageReplay).Total.Seconds()
		busy = append(busy, rb)
		eff = append(eff, rb/(it.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	}
	r.set("sweep_s", median(walls))
	r.detail("sweep_s.raw", "s", median(raw))
	r.set("sim_maccess_per_s", median(rates))
	r.set("experiment.plan_s", median(plan))
	r.set("experiment.space_s", median(space))
	r.set("experiment.space_count", median(spaces))
	r.set("sim.replay_busy_s", median(busy))
	r.set("sim.replay_efficiency", median(eff))
	var measured, total uint64
	for _, ds := range its[0].dss {
		measured += ds.MeasuredAccesses
		total += ds.TotalAccesses
	}
	frac := 1.0
	if total > 0 {
		frac = float64(measured) / float64(total)
	}
	r.set("sim.sampled_measured_frac", frac)
}

// pairRef is one measured (workload, platform) pair: its trace, its
// protocol, and the check a solo replay of one of its layouts must pass.
type pairRef struct {
	wd   *experiment.WorkloadData
	plat arch.Platform // unscaled
	lays []layout.Layout
	// match returns "" when got equals what the sweep measured for lay.
	match func(lay string, got sim.Result) string
}

// sweepPairs binds each dataset of a sweep to its trace and protocol.
func sweepPairs(spec sweepSpec, ws []workloads.Workload, traceDir string, dss []*experiment.Dataset) ([]pairRef, error) {
	runner := experiment.NewRunner()
	runner.TraceDir, runner.Proto = traceDir, spec.proto
	byName := make(map[string]*experiment.WorkloadData, len(ws))
	for _, w := range ws {
		wd, err := runner.Prepare(w)
		if err != nil {
			return nil, err
		}
		byName[w.Name()] = wd
	}
	var out []pairRef
	for _, ds := range dss {
		plat, err := arch.ByName(ds.Platform)
		if err != nil {
			return nil, err
		}
		wd := byName[ds.Workload]
		out = append(out, pairRef{wd: wd, plat: plat, lays: runner.ProtocolLayouts(wd, plat), match: datasetMatch(ds)})
	}
	return out, nil
}

// datasetMatch checks a replay against the sweep's result for a layout.
func datasetMatch(ds *experiment.Dataset) func(string, sim.Result) string {
	return func(lay string, got sim.Result) string {
		want := sim.Result{
			Counters:         ds.Counters[lay],
			Phases:           ds.Phases[lay],
			MeasuredAccesses: ds.MeasuredAccesses,
			TotalAccesses:    ds.TotalAccesses,
		}
		if got.Equal(want) {
			return ""
		}
		return fmt.Sprintf("%s/%s: solo replay %+v differs from the sweep's %+v", ds.Key(), lay, got.Counters, want.Counters)
	}
}

// spotCheck replays one seeded layout of every pair solo on a fresh full
// engine and requires the sweep's result.
func (r *run) spotCheck(pairs []pairRef, sampling sim.Sampling) error {
	span := r.rec.Begin("spotcheck", "spotcheck", 0)
	defer r.rec.End(span)
	for _, p := range pairs {
		lay := p.lays[r.rng.Intn(len(p.lays))]
		got, err := replaySolo(p.wd, p.plat.Scaled(), lay, sampling)
		if err != nil {
			return err
		}
		msg := p.match(lay.Name, got)
		r.op(msg == "", "%s", msg)
	}
	return nil
}

// replaySolo replays one layout on a freshly built full engine.
func replaySolo(wd *experiment.WorkloadData, plat arch.Platform, lay layout.Layout, sampling sim.Sampling) (sim.Result, error) {
	space, err := sim.BuildSpace(physMem, lay.Cfg)
	if err != nil {
		return sim.Result{}, err
	}
	eng, err := sim.NewFull(plat, space)
	if err != nil {
		return sim.Result{}, err
	}
	return eng.RunSampled(wd.Trace, sampling)
}
