package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/pmu"
	"mosaic/internal/serve"
	"mosaic/internal/serve/registry"
	"mosaic/internal/sim"
)

// On every experimental platform, servePredictWorkloads are the pairs
// serve-mixed trains at set-up and predicts against, and serveJobWorkloads
// the training sweeps it submits as jobs under predict traffic. The two
// sets share no pair, so jobs never retrain a model that is being served.
var (
	servePredictWorkloads = []string{"gups/8GB", "spec06/mcf"}
	serveJobWorkloads     = []string{"gups/16GB", "spec06/omnetpp", "dbindex/btree-point-uniform", "dbindex/hashjoin-zipf"}
)

// jobPhaseRate is the predict rate held while training jobs run, in
// requests per second.
const jobPhaseRate = 200

// serveShape is serve-mixed at its normal or its minimum size.
type serveShape struct {
	plats        []arch.Platform
	jobWorkloads []string
	jobProto     string
}

func serveShapeFor(small bool) serveShape {
	if small {
		return serveShape{[]arch.Platform{arch.Broadwell}, serveJobWorkloads[:2], "quick"}
	}
	return serveShape{arch.Experimental, serveJobWorkloads, "standard"}
}

// runServe measures serve-mixed: mosd set-up with trained pairs, the
// predict ladder, then training jobs submitted together while predicts
// continue at jobPhaseRate.
func runServe(r *run) error {
	o := r.o
	shape := serveShapeFor(o.Small)
	ref, err := newRefKernel()
	if err != nil {
		return err
	}
	setupRef := ref.measure()

	var setups []float64
	var d *daemon
	var regDir string
	for k := 0; k < setupReps; k++ {
		dir := filepath.Join(o.WorkDir, "mosd-"+strconv.Itoa(k))
		regDir = filepath.Join(dir, "registry")
		t0 := time.Now()
		d, err = serveSetup(o.Mosd, dir, regDir, shape)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupReps-1 {
			d.stop()
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	ladderRef := ref.measure()
	r.set("setup_s", median(setups)*calibration(setupRef, ladderRef))
	r.detail("setup_s.raw", "s", median(setups))

	reg, err := registry.Open(regDir)
	if err != nil {
		return err
	}
	cases, err := requestMix(reg, r.rng, mixSize)
	if err != nil {
		return err
	}
	g := newGenerator(d.base, cases, o.Seed, r.rec)
	defer g.close()
	start := time.Now()
	lr, err := r.runLadder(g, d, predictRungs(o.Small, o.Trace, 2000))
	if err != nil {
		return err
	}
	prevRef := ref.measure()
	r.recordPredict(lr, calibration(ladderRef, prevRef))
	r.set("bench.trace_overhead_pct", lr.overhead)

	// Rounds of training jobs until the budget is spent, each between two
	// reference kernel measurements; every round must reproduce the first
	// round's results.
	var rounds []jobRound
	for {
		rd, err := r.jobRoundOf(d, g, shape, len(rounds))
		if err != nil {
			return err
		}
		next := ref.measure()
		rd.calFactor = calibration(prevRef, next)
		prevRef = next
		if len(rounds) > 0 {
			r.op(rd.digest == rounds[0].digest, "job round %d digest %s differs from the first round's %s", len(rounds), rd.digest, rounds[0].digest)
		}
		rounds = append(rounds, rd)
		if o.Small || time.Since(start)+rd.makespan > o.Budget {
			break
		}
	}
	r.rep.Digest = rounds[0].digest
	r.set("bench.host_slowdown", ref.slowdown())
	r.set("peak_rss_mb", d.stop())
	stopped = true

	// In-process references: the job workloads' traces, for the rounds'
	// throughput and the output checks.
	ws, err := workloadsByName(shape.jobWorkloads, 1)
	if err != nil {
		return err
	}
	gen, _, wds, err := prepareTraces(ws, filepath.Join(o.WorkDir, "traces"))
	if err != nil {
		return err
	}
	r.set("workloads.generate_s", gen.Seconds())
	runner := experiment.NewRunner()
	runner.TraceDir = filepath.Join(o.WorkDir, "traces")
	if shape.jobProto == "quick" {
		runner.Proto = experiment.Quick
	}
	byName := make(map[string]*experiment.WorkloadData, len(wds))
	lens := make(map[string]int, len(wds))
	for _, wd := range wds {
		byName[wd.Workload.Name()] = wd
		lens[wd.Workload.Name()] = wd.Trace.Len()
	}
	r.recordJobs(rounds, lens)
	var pairs []pairRef
	var dss []*experiment.Dataset
	for _, j := range rounds[0].done {
		wd := byName[j.spec.Workload]
		plat, err := arch.ByName(j.spec.Platform)
		if err != nil {
			return err
		}
		pairs = append(pairs, pairRef{wd: wd, plat: plat, lays: runner.ProtocolLayouts(wd, plat), match: sampleMatch(j.res)})
		dss = append(dss, &experiment.Dataset{Workload: j.res.Workload, Platform: j.res.Platform,
			Samples: j.res.Samples, Sample1G: j.res.Sample1G, TLBSensitive: j.res.TLBSensitive})
	}
	if err := r.spotCheck(pairs, sim.Sampling{}); err != nil {
		return err
	}
	if r.rec != nil {
		return r.layerProbes(pairs, sim.Sampling{}, dss, reg, cases)
	}
	return nil
}

// serveSetup starts mosd in dir, trains the predict pairs through Quick
// training jobs, waits for /readyz to count them, and sends one predict per
// pair so the serving path is warm.
func serveSetup(bin, dir, regDir string, shape serveShape) (*daemon, error) {
	d, err := startDaemon(bin, dir, "-registry", regDir, "-tracedir", filepath.Join(dir, "traces"))
	if err != nil {
		return nil, err
	}
	var ids []string
	var pairs [][2]string
	for _, p := range shape.plats {
		for _, w := range servePredictWorkloads {
			id, err := d.submit(serve.JobSpec{Workload: w, Platform: p.Name, Proto: "quick", Train: true})
			if err != nil {
				d.stop()
				return nil, err
			}
			ids = append(ids, id)
			pairs = append(pairs, [2]string{w, p.Name})
		}
	}
	final, _, err := d.awaitJobs(ids, 5*time.Minute)
	if err == nil {
		for _, id := range ids {
			if final[id].State != serve.JobDone {
				err = fmt.Errorf("set-up job %s %s@%s: %s %s", id, final[id].Spec.Workload, final[id].Spec.Platform, final[id].State, final[id].Error)
				break
			}
		}
	}
	var ready struct {
		TrainedPairs int `json:"trainedPairs"`
	}
	if err == nil {
		var code int
		code, err = d.do("GET", "/readyz", nil, &ready)
		if err == nil && (code != http.StatusOK || ready.TrainedPairs != len(pairs)) {
			err = fmt.Errorf("/readyz: status %d with %d trained pairs, want %d", code, ready.TrainedPairs, len(pairs))
		}
	}
	for _, p := range pairs {
		if err != nil {
			break
		}
		var code int
		code, err = d.do("POST", "/v1/predict", predictBody{Workload: p[0], Platform: p[1], Layout: "4KB"}, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("warm-up predict %s@%s: status %d", p[0], p[1], code)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// finishedJob is one training job of a job round.
type finishedJob struct {
	spec serve.JobSpec
	res  *serve.JobResult
}

// jobRound is what one round of training jobs measured.
type jobRound struct {
	done     []finishedJob // in submission order
	walls    []float64     // submit to done, seconds
	makespan time.Duration
	// calFactor scales the round's times to the reference host speed.
	calFactor float64
	// Per-job stage seconds (and space counts) from the jobs' stageTimes.
	plan, space, spaces, replay []float64
	digest                      string
}

// jobRoundOf submits every training job at once while predicts continue at
// jobPhaseRate, polls until all finish, and checks their results.
func (r *run) jobRoundOf(d *daemon, g *generator, shape serveShape, round int) (jobRound, error) {
	var out jobRound
	var specs []serve.JobSpec
	for _, p := range shape.plats {
		for _, w := range shape.jobWorkloads {
			specs = append(specs, serve.JobSpec{Workload: w, Platform: p.Name, Proto: shape.jobProto, Train: true})
		}
	}
	label := "jobs-" + strconv.Itoa(round)
	span := r.rec.Begin("jobs", label, 0)
	stop := make(chan struct{})
	traffic := make(chan []reqSample, 1)
	go func() { traffic <- g.phase(jobPhaseRate, 0, stop, span, label) }()
	start := time.Now()
	ids := make([]string, 0, len(specs))
	submitted := make([]time.Time, 0, len(specs))
	var err error
	for _, spec := range specs {
		var id string
		submitted = append(submitted, time.Now())
		if id, err = d.submit(spec); err != nil {
			break
		}
		ids = append(ids, id)
	}
	var final map[string]serve.Job
	var doneAt map[string]time.Time
	if err == nil {
		final, doneAt, err = d.awaitJobs(ids, 10*time.Minute)
	}
	close(stop)
	pr := <-traffic
	r.rec.End(span)
	if err != nil {
		return out, err
	}

	st := r.stats(pr)
	p, tail := tailPercentile(st.latency, 99)
	r.detail(fmt.Sprintf("predict_p%g_ms@%d+%s", p, jobPhaseRate, label), "ms", tail)
	r.detail(fmt.Sprintf("predict_requests@%d+%s", jobPhaseRate, label), "count", float64(len(st.latency)))

	var last time.Time
	h := fnv.New64a()
	for i, id := range ids {
		job := final[id]
		if job.State != serve.JobDone {
			r.op(false, "job %s %s@%s: %s %s", id, job.Spec.Workload, job.Spec.Platform, job.State, job.Error)
			continue
		}
		var res serve.JobResult
		code, err := d.do("GET", "/v1/jobs/"+id+"/result", nil, &res)
		if err != nil {
			return out, err
		}
		r.op(code == http.StatusOK, "GET /v1/jobs/%s/result: status %d", id, code)
		raw, err := json.Marshal(res)
		if err != nil {
			return out, err
		}
		h.Write(raw)
		out.done = append(out.done, finishedJob{spec: specs[i], res: &res})
		out.walls = append(out.walls, doneAt[id].Sub(submitted[i]).Seconds())
		if doneAt[id].After(last) {
			last = doneAt[id]
		}
		for _, sv := range job.StageTimes {
			switch sv.Stage {
			case sim.StagePlan.String():
				out.plan = append(out.plan, sv.Seconds)
			case sim.StageSpace.String():
				out.space = append(out.space, sv.Seconds)
				out.spaces = append(out.spaces, float64(sv.Count))
			case sim.StageReplay.String():
				out.replay = append(out.replay, sv.Seconds)
			}
		}
	}
	if len(out.done) == 0 {
		return out, fmt.Errorf("no training job finished: %q", r.rep.Failures)
	}
	out.makespan = last.Sub(start)
	out.digest = fmt.Sprintf("%016x", h.Sum64())
	r.detail("jobs_makespan_s@"+label, "s", out.makespan.Seconds())
	return out, nil
}

// recordJobs sets the sweep metrics from the job rounds: the median job
// wall time, each round's trace accesses covered per second of makespan,
// and the jobs' pipeline stages. lens maps workload names to trace
// lengths.
func (r *run) recordJobs(rounds []jobRound, lens map[string]int) {
	var raw, walls, rates, plan, space, spaces, replay []float64
	var busy, makespan float64
	for _, rd := range rounds {
		covered := 0.0
		for _, j := range rd.done {
			covered += float64((len(j.res.Samples) + 1) * lens[j.spec.Workload])
		}
		rates = append(rates, covered/(rd.makespan.Seconds()*rd.calFactor)/1e6)
		raw = append(raw, rd.walls...)
		for _, w := range rd.walls {
			walls = append(walls, w*rd.calFactor)
		}
		plan = append(plan, rd.plan...)
		space = append(space, rd.space...)
		spaces = append(spaces, rd.spaces...)
		replay = append(replay, rd.replay...)
		for _, s := range rd.replay {
			busy += s
		}
		makespan += rd.makespan.Seconds()
	}
	r.set("sweep_s", median(walls))
	r.detail("sweep_s.raw", "s", median(raw))
	r.set("sim_maccess_per_s", median(rates))
	r.set("experiment.plan_s", median(plan))
	r.set("experiment.space_s", median(space))
	r.set("experiment.space_count", median(spaces))
	r.set("sim.replay_busy_s", median(replay))
	r.set("sim.replay_efficiency", busy/(makespan*float64(runtime.GOMAXPROCS(0))))
	r.set("sim.sampled_measured_frac", 1) // training jobs replay exactly
	r.detail("job_rounds", "count", float64(len(rounds)))
}

// sampleMatch checks a replay against a job's reported sample for a
// layout, bit for bit.
func sampleMatch(res *serve.JobResult) func(string, sim.Result) string {
	return func(lay string, got sim.Result) string {
		g := pmu.SampleFrom(lay, got.Counters)
		for _, w := range append(append([]pmu.Sample(nil), res.Samples...), res.Sample1G) {
			if w.Layout != lay {
				continue
			}
			if math.Float64bits(g.H) == math.Float64bits(w.H) && math.Float64bits(g.M) == math.Float64bits(w.M) &&
				math.Float64bits(g.C) == math.Float64bits(w.C) && math.Float64bits(g.R) == math.Float64bits(w.R) {
				return ""
			}
			return fmt.Sprintf("%s@%s/%s: solo replay %+v differs from the job's %+v", res.Workload, res.Platform, lay, g, w)
		}
		return fmt.Sprintf("%s@%s: job result has no layout %s", res.Workload, res.Platform, lay)
	}
}
