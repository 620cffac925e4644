// Command mosbench reproduces the paper's evaluation: every figure and
// table of "Predicting Execution Times With Partial Simulations in Virtual
// Memory Research: Why and How" (MICRO 2020), regenerated on the modelled
// platforms.
//
// Usage:
//
//	mosbench -fig 2a          # one figure: 2a 2b 3 5 6 7 8 9 10 11
//	mosbench -table 6         # one table: 6 7 8
//	mosbench -case 1gb        # the §VII-D 1GB-pages case study
//	mosbench -all             # everything
//	mosbench -quick ...       # 9-layout protocol instead of 54 (fast)
//	mosbench -workloads a,b   # restrict the workload set
//	mosbench -platforms x,y   # restrict the platform set
//	mosbench -sample-period N # sampled replay: measure N/16 accesses per N
//	mosbench -adaptive        # active-learning sweep: probe cheap, promote
//	                          # high-uncertainty layouts to exact replay
//
// The sampled-replay and adaptive-sweep accuracy contracts are enforced by
// the root package's tests, not by mosbench:
//
//	go test -v -run TestSampledReplayAccuracy .
//	go test -v -run TestPhasedSampledAccuracy .
//	go test -v -run TestAdaptiveContract .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/models"
	"mosaic/internal/plan"
	"mosaic/internal/pmu"
	"mosaic/internal/report"
	"mosaic/internal/sim"
	"mosaic/internal/workloads"
)

func main() {
	var (
		figFlag   = flag.String("fig", "", "figure to reproduce (2a, 2b, 3, 5, 6, 7, 8, 9, 10, 11)")
		tableFlag = flag.String("table", "", "table to reproduce (6, 7, 8)")
		caseFlag  = flag.String("case", "", "case study to run (1gb)")
		allFlag   = flag.Bool("all", false, "reproduce every figure and table")
		quick     = flag.Bool("quick", false, "use the 9-layout quick protocol instead of the 54-layout standard")
		wlFlag    = flag.String("workloads", "", "comma-separated workload subset (default: all 19)")
		platFlag  = flag.String("platforms", "", "comma-separated platform subset (default: Broadwell,Haswell,SandyBridge)")
		parallel  = flag.Int("parallelism", 0, "worker goroutines for the measurement sweep (default: GOMAXPROCS)")
		traceDir  = flag.String("tracedir", "", "directory for caching workload traces across runs")
		jsonFlag  = flag.Bool("json", false, "dump the collected datasets as JSON instead of rendering figures")
		svgDir    = flag.String("svg", "", "also write per-figure SVG charts into this directory")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file")

		samplePeriod = flag.Int("sample-period", 0,
			"sampled replay: accesses per sampling period (0 = exact replay)")
		sampleWindow = flag.Int("sample-window", 0,
			"sampled replay: measured accesses per period (default: period/16)")
		sampleWarmup = flag.Int("sample-warmup", -1,
			"sampled replay: functional-warmup accesses before each window (default: the window length)")
		samplePrologue = flag.Int("sample-prologue", -1,
			"sampled replay: exactly-measured opening accesses, kept out of the extrapolation (default: period/2)")

		adaptive = flag.Bool("adaptive", false,
			"plan the sweep adaptively: probe every layout cheaply, promote only high-uncertainty layouts to exact replay")
		errorTarget = flag.Float64("error-target", 0,
			"adaptive: stop promoting once the predicted max error falls to this fraction (0 = spend the whole budget)")
		budget = flag.Int("budget", 0,
			"adaptive: max exact layout measurements, anchors included (0 = one fifth of the protocol)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// The profile is written on the way out (after defers run), so it
		// reflects the heap at the end of the sweep.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	app := &bench{runner: experiment.NewRunner(), out: os.Stdout, diag: os.Stderr}
	if *quick {
		app.runner.Proto = experiment.Quick
	}
	if *parallel > 0 {
		app.runner.Parallelism = *parallel
	}
	app.runner.TraceDir = *traceDir
	app.runner.Sampling = buildSampling(*samplePeriod, *sampleWindow, *sampleWarmup, *samplePrologue)
	app.svgDir = *svgDir
	var err error
	if app.workloads, err = selectWorkloads(*wlFlag); err != nil {
		fatal(err)
	}
	if app.platforms, err = selectPlatforms(*platFlag); err != nil {
		fatal(err)
	}

	planCfg := plan.Config{
		ErrorTarget:   *errorTarget,
		MaxPromotions: *budget,
		// An explicit -sample-period overrides the planner's probe plan.
		ProbeSampling: app.runner.Sampling,
	}
	switch {
	case *adaptive:
		err = app.adaptiveRun(planCfg, *jsonFlag)
	case *jsonFlag:
		err = app.exportJSON()
	case *allFlag:
		err = app.all()
	case *figFlag != "":
		err = app.figure(*figFlag)
	case *tableFlag != "":
		err = app.table(*tableFlag)
	case *caseFlag != "":
		err = app.caseStudy(*caseFlag)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mosbench:", err)
	os.Exit(1)
}

// buildSampling folds the four -sample-* flags into a config: -sample-period
// alone picks the conventional 1/16 coverage (window = period/16, warmup =
// window) with a half-period exact prologue, mirroring the shape of
// sim.DefaultSampling.
func buildSampling(period, window, warmup, prologue int) sim.Sampling {
	if period <= 0 {
		return sim.Sampling{}
	}
	s := sim.Sampling{Period: period, MeasureLen: window, WarmupLen: warmup, PrologueLen: prologue}
	if s.MeasureLen <= 0 {
		s.MeasureLen = max(1, period/16)
	}
	if s.WarmupLen < 0 {
		s.WarmupLen = s.MeasureLen
	}
	if s.PrologueLen < 0 {
		s.PrologueLen = period / 2
	}
	return s
}

func selectWorkloads(list string) ([]workloads.Workload, error) {
	if list == "" {
		return workloads.All(), nil
	}
	var out []workloads.Workload
	for _, name := range strings.Split(list, ",") {
		w, err := workloads.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func selectPlatforms(list string) ([]arch.Platform, error) {
	if list == "" {
		return arch.Experimental, nil
	}
	var out []arch.Platform
	for _, name := range strings.Split(list, ",") {
		p, err := arch.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

type bench struct {
	runner    *experiment.Runner
	workloads []workloads.Workload
	platforms []arch.Platform
	collected []*experiment.Dataset
	svgDir    string
	// out receives results (tables, charts, JSON); diag receives progress
	// lines and stage summaries. main wires them to stdout/stderr, so
	// `mosbench -json > data.json` stays parseable no matter how chatty the
	// sweep is; tests wire buffers to pin that split.
	out  io.Writer
	diag io.Writer
}

// progressLine renders one sweep progress report on stderr: stage, job
// counts, effective worker count, elapsed time, and the scheduler's ETA.
// Under sampled replay the replay stage also shows how many trace accesses
// were measured at full fidelity versus skipped (warmed or jumped over).
func (b *bench) progressLine(p sim.Progress) {
	eta := "    -"
	if p.ETA > 0 {
		eta = fmt.Sprintf("%4.0fs", p.ETA.Seconds())
	}
	coverage := ""
	if b.runner.Sampling.Enabled() && p.Stage == sim.StageReplay.String() {
		measured, skipped := b.runner.SampledProgress()
		coverage = fmt.Sprintf(" meas=%s skip=%s", fmtCount(measured), fmtCount(skipped))
	}
	fmt.Fprintf(b.diag, "\r[%-7s %4d/%d] workers=%-2d %6.1fs ETA %s%s  %-44.44s",
		p.Stage, p.Done, p.Total, p.Workers, p.Elapsed.Seconds(), eta, coverage, p.Label)
}

// fmtCount renders an access count compactly (12.3M-style).
func fmtCount(n uint64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

// collectAll measures every (workload, platform) dataset through the
// sweep-wide scheduler, reporting staged progress on stderr, and returns
// the TLB-sensitive ones (the paper's inclusion criterion).
func (b *bench) collectAll() ([]*experiment.Dataset, error) {
	if b.collected != nil {
		return b.collected, nil
	}
	all, err := b.runner.CollectAll(b.workloads, b.platforms, b.progressLine)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(b.diag)
	var out []*experiment.Dataset
	for _, ds := range all {
		if ds.TLBSensitive {
			out = append(out, ds)
		} else {
			fmt.Fprintf(b.diag, "  (excluding %s on %s: not TLB-sensitive)\n", ds.Workload, ds.Platform)
		}
	}
	for _, st := range b.runner.StageTimes() {
		if st.Count > 0 {
			fmt.Fprintf(b.diag, "  stage %-7s %4d× %8.1fs total\n", st.Stage, st.Count, st.Total.Seconds())
		}
	}
	b.collected = out
	return out, nil
}

func (b *bench) dataset(workload, platform string) (*experiment.Dataset, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	p, err := arch.ByName(platform)
	if err != nil {
		return nil, err
	}
	return b.runner.Collect(w, p)
}

// exportJSON dumps every collected dataset (sensitive and insensitive) as
// one JSON document on stdout — the raw material for external analysis.
func (b *bench) exportJSON() error {
	type entry struct {
		Workload     string
		Platform     string
		TLBSensitive bool
		Samples      []pmuSampleJSON
		Sample1G     pmuSampleJSON
	}
	all, err := b.runner.CollectAll(b.workloads, b.platforms, b.progressLine)
	if err != nil {
		return err
	}
	fmt.Fprintln(b.diag)
	var out []entry
	for _, ds := range all {
		e := entry{
			Workload:     ds.Workload,
			Platform:     ds.Platform,
			TLBSensitive: ds.TLBSensitive,
			Sample1G:     sampleJSON(ds.Sample1G),
		}
		for _, s := range ds.Samples {
			e.Samples = append(e.Samples, sampleJSON(s))
		}
		out = append(out, e)
	}
	enc := json.NewEncoder(b.out)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

type pmuSampleJSON struct {
	Layout  string
	H, M, C float64
	R       float64
}

func sampleJSON(s pmu.Sample) pmuSampleJSON {
	return pmuSampleJSON{Layout: s.Layout, H: s.H, M: s.M, C: s.C, R: s.R}
}

func (b *bench) all() error {
	for _, f := range []string{"2a", "2b", "3", "5", "6", "7", "8", "9", "10", "11"} {
		if err := b.figure(f); err != nil {
			return fmt.Errorf("figure %s: %w", f, err)
		}
	}
	for _, t := range []string{"6", "7", "8"} {
		if err := b.table(t); err != nil {
			return fmt.Errorf("table %s: %w", t, err)
		}
	}
	return b.caseStudy("1gb")
}

func (b *bench) figure(name string) error {
	switch name {
	case "2a", "2b":
		all, err := b.collectAll()
		if err != nil {
			return err
		}
		worst, err := experiment.Figure2(all)
		if err != nil {
			return err
		}
		title := "Figure 2a: maximal error of preexisting models (all workloads & machines)"
		names := models.PriorNames
		if name == "2b" {
			title = "Figure 2b: maximal error of the new models (all workloads & machines)"
			names = models.NewNames
		}
		fmt.Fprintln(b.out, report.ModelErrorTable(title, worst, names))
		if b.svgDir != "" {
			var vals []float64
			for _, n := range names {
				vals = append(vals, worst[n])
			}
			if err := os.MkdirAll(b.svgDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(b.svgDir, "figure"+name+".svg")
			if err := os.WriteFile(path, []byte(report.SVGBars(title, names, vals, 640, 360)), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(b.diag, "wrote %s\n", path)
		}
	case "3":
		return b.curve("spec06/mcf", "SandyBridge",
			"Figure 3: the linear model cannot predict spec06/mcf; Mosmodel can",
			[]string{"poly1", "mosmodel"})
	case "5", "6":
		all, err := b.collectAll()
		if err != nil {
			return err
		}
		geo := name == "6"
		kind := "maximal"
		if geo {
			kind = "geomean"
		}
		for _, p := range b.platforms {
			pb, err := experiment.PerBenchmark(p.Name, all)
			if err != nil {
				return err
			}
			fmt.Fprintln(b.out, report.PerBenchmarkTable(
				fmt.Sprintf("Figure %s (%s): per-benchmark %s error", name, p.Name, kind), pb, geo))
		}
	case "7":
		if err := b.curve("gapbs/sssp-twitter", "SandyBridge",
			"Figure 7: the Basu model is optimistic for gapbs/sssp-twitter",
			[]string{"basu"}); err != nil {
			return err
		}
		ds, err := b.dataset("gapbs/sssp-twitter", "SandyBridge")
		if err != nil {
			return err
		}
		under, err := experiment.UnderpredictionAtLowC(ds, "basu")
		if err != nil {
			return err
		}
		fmt.Fprintf(b.out, "Basu underpredicts the lowest-walk-cycles layout by %s (paper: 42%%)\n\n",
			report.Pct(under))
	case "8":
		return b.curve("spec06/omnetpp", "SandyBridge",
			"Figure 8: linear regression describes spec06/omnetpp well",
			[]string{"poly1"})
	case "9":
		if err := b.curve("spec17/xalancbmk_s", "Broadwell",
			"Figure 9: the spec17/xalancbmk_s model slope exceeds 1",
			[]string{"poly1"}); err != nil {
			return err
		}
		ds, err := b.dataset("spec17/xalancbmk_s", "Broadwell")
		if err != nil {
			return err
		}
		slope, err := experiment.FittedSlope(ds)
		if err != nil {
			return err
		}
		fmt.Fprintf(b.out, "fitted poly1 slope α = %.2f (paper: α > 1)\n\n", slope)
	case "10":
		return b.curve("gups/16GB", "SandyBridge",
			"Figure 10: gups/16GB needs a higher-order polynomial",
			[]string{"poly1", "poly2", "poly3"})
	case "11":
		ds, err := b.dataset("gapbs/pr-twitter", "SandyBridge")
		if err != nil {
			return err
		}
		res, err := experiment.CaseStudy1G(ds)
		if err != nil {
			return err
		}
		fmt.Fprintln(b.out, "Figure 11: predicting the 1GB-pages layout of gapbs/pr-twitter (SandyBridge)")
		t := report.NewTable("model", "error on 1GB prediction")
		for _, name := range []string{"yaniv", "mosmodel"} {
			t.AddRow(name, report.Pct(res[name]))
		}
		fmt.Fprintln(b.out, t.String())
	default:
		return fmt.Errorf("unknown figure %q", name)
	}
	return nil
}

func (b *bench) curve(workload, platform, title string, modelNames []string) error {
	ds, err := b.dataset(workload, platform)
	if err != nil {
		return err
	}
	cv, err := experiment.CurveFor(ds, modelNames)
	if err != nil {
		return err
	}
	fmt.Fprintln(b.out, title)
	runes := map[string]rune{"poly1": '-', "poly2": '2', "poly3": '3', "mosmodel": '*', "basu": 'b', "yaniv": 'y'}
	fmt.Fprintln(b.out, report.Chart(cv, 72, 20, runes))
	if b.svgDir != "" {
		if err := os.MkdirAll(b.svgDir, 0o755); err != nil {
			return err
		}
		name := strings.NewReplacer("/", "_", " ", "_").Replace(workload+"_"+platform) + ".svg"
		path := filepath.Join(b.svgDir, name)
		if err := os.WriteFile(path, []byte(report.SVGChart(cv, 720, 440)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(b.diag, "wrote %s\n", path)
	}
	return nil
}

func (b *bench) table(name string) error {
	switch name {
	case "6":
		all, err := b.collectAll()
		if err != nil {
			return err
		}
		cv, err := experiment.Table6(all, 6)
		if err != nil {
			return err
		}
		fmt.Fprintln(b.out, report.ModelErrorTable(
			"Table 6: maximal K-fold cross-validation errors of the new models",
			cv, models.NewNames))
	case "7":
		ds, err := b.dataset("spec17/xalancbmk_s", "Broadwell")
		if err != nil {
			return err
		}
		rows, err := experiment.Table7(ds)
		if err != nil {
			return err
		}
		fmt.Fprintln(b.out, report.Table7Text(ds, rows))
	case "8":
		all, err := b.collectAll()
		if err != nil {
			return err
		}
		rows, err := experiment.Table8(all)
		if err != nil {
			return err
		}
		var platforms []string
		for _, p := range b.platforms {
			platforms = append(platforms, p.Name)
		}
		fmt.Fprintln(b.out, report.Table8Text(rows, platforms))
	default:
		return fmt.Errorf("unknown table %q", name)
	}
	return nil
}

func (b *bench) caseStudy(name string) error {
	if name != "1gb" {
		return fmt.Errorf("unknown case study %q", name)
	}
	all, err := b.collectAll()
	if err != nil {
		return err
	}
	worst := make(map[string]float64)
	for _, ds := range all {
		res, err := experiment.CaseStudy1G(ds)
		if err != nil {
			return err
		}
		for m, e := range res {
			if e > worst[m] {
				worst[m] = e
			}
		}
	}
	fmt.Fprintln(b.out, "Case study (§VII-D): worst error predicting the held-out 1GB-pages layout")
	names := make([]string, 0, len(worst))
	for m := range worst {
		names = append(names, m)
	}
	sort.Strings(names)
	t := report.NewTable("model", "worst 1GB-prediction error")
	for _, m := range names {
		t.AddRow(m, report.Pct(worst[m]))
	}
	fmt.Fprintln(b.out, t.String())
	return nil
}
