// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md's per-experiment index), plus ablation benchmarks
// for the design decisions the timing model rests on, plus micro-benchmarks
// of the simulator's hot paths.
//
// The per-figure benchmarks report the figures' headline numbers via
// b.ReportMetric (max errors as "maxerr_<model>_%"), so
// `go test -bench=. -benchmem` regenerates the paper's rows and series.
// Dataset collection is shared and cached across benchmarks; the first
// benchmark that needs the full sweep pays for it outside its timer.
package mosaic

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/cpu"
	"mosaic/internal/experiment"
	"mosaic/internal/libc"
	"mosaic/internal/mem"
	"mosaic/internal/models"
	"mosaic/internal/mosalloc"
	"mosaic/internal/pmu"
	"mosaic/internal/trace"
	"mosaic/internal/workloads"
)

// The shared measurement state: one runner, datasets collected on demand.
var (
	benchMu     sync.Mutex
	benchRunner = experiment.NewRunner()
	benchAll    []*experiment.Dataset
)

// allDatasets collects (once) the full 19-workload × 3-platform sweep and
// returns the TLB-sensitive datasets, exactly as the figures use them.
func allDatasets(b *testing.B) []*experiment.Dataset {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchAll != nil {
		return benchAll
	}
	for _, p := range arch.Experimental {
		for _, w := range workloads.All() {
			ds, err := benchRunner.Collect(w, p)
			if err != nil {
				b.Fatal(err)
			}
			if ds.TLBSensitive {
				benchAll = append(benchAll, ds)
			}
		}
	}
	return benchAll
}

// dataset collects one (workload, platform) pair through the shared runner.
func dataset(b *testing.B, workload, platform string) *experiment.Dataset {
	b.Helper()
	w, err := workloads.ByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	p, err := arch.ByName(platform)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := benchRunner.Collect(w, p)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// reportWorst attaches per-model headline metrics to the benchmark.
func reportWorst(b *testing.B, worst map[string]float64, names []string) {
	for _, name := range names {
		if e, ok := worst[name]; ok {
			b.ReportMetric(e*100, "maxerr_"+name+"_%")
		}
	}
}

// BenchmarkFigure2a regenerates Figure 2a: the worst-case error of every
// preexisting model over all workloads and machines (paper: 25%–192%).
func BenchmarkFigure2a(b *testing.B) {
	all := allDatasets(b)
	b.ResetTimer()
	var worst map[string]float64
	for i := 0; i < b.N; i++ {
		var err error
		worst, err = experiment.Figure2(all)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportWorst(b, worst, models.PriorNames)
}

// BenchmarkFigure2b regenerates Figure 2b: the new models' worst-case
// errors (paper: poly1 26.3%, poly2 11.1%, poly3 6.0%, mosmodel 2.9%).
func BenchmarkFigure2b(b *testing.B) {
	all := allDatasets(b)
	b.ResetTimer()
	var worst map[string]float64
	for i := 0; i < b.N; i++ {
		var err error
		worst, err = experiment.Figure2(all)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportWorst(b, worst, models.NewNames)
}

// BenchmarkFigure3 regenerates Figure 3: spec06/mcf on SandyBridge, where
// the linear model misses and Mosmodel stays within 2%.
func BenchmarkFigure3(b *testing.B) {
	ds := dataset(b, "spec06/mcf", "SandyBridge")
	b.ResetTimer()
	var cv *experiment.Curve
	for i := 0; i < b.N; i++ {
		var err error
		cv, err = experiment.CurveFor(ds, []string{"poly1", "mosmodel"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cv.Errors["poly1"]*100, "maxerr_poly1_%")
	b.ReportMetric(cv.Errors["mosmodel"]*100, "maxerr_mosmodel_%")
}

// BenchmarkFigure5 regenerates Figure 5: per-benchmark maximal errors of
// all nine models on each platform.
func BenchmarkFigure5(b *testing.B) {
	all := allDatasets(b)
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = 0
		for _, p := range arch.Experimental {
			pb, err := experiment.PerBenchmark(p.Name, all)
			if err != nil {
				b.Fatal(err)
			}
			rows += len(pb.Workloads)
		}
	}
	b.ReportMetric(float64(rows), "benchmark_rows")
}

// BenchmarkFigure6 regenerates Figure 6: the geometric-mean errors.
func BenchmarkFigure6(b *testing.B) {
	all := allDatasets(b)
	b.ResetTimer()
	var worstGeo float64
	for i := 0; i < b.N; i++ {
		worstGeo = 0
		for _, p := range arch.Experimental {
			pb, err := experiment.PerBenchmark(p.Name, all)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range pb.Geo {
				for _, v := range row {
					if v > worstGeo {
						worstGeo = v
					}
				}
			}
		}
	}
	b.ReportMetric(worstGeo*100, "worst_geomean_%")
}

// BenchmarkFigure7 regenerates Figure 7: the Basu model's optimism for
// gapbs/sssp-twitter on SandyBridge (paper: 42% below the true runtime).
func BenchmarkFigure7(b *testing.B) {
	ds := dataset(b, "gapbs/sssp-twitter", "SandyBridge")
	b.ResetTimer()
	var under float64
	for i := 0; i < b.N; i++ {
		var err error
		under, err = experiment.UnderpredictionAtLowC(ds, "basu")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(under*100, "basu_underprediction_%")
}

// BenchmarkFigure8 regenerates Figure 8: linear regression fits
// spec06/omnetpp well.
func BenchmarkFigure8(b *testing.B) {
	ds := dataset(b, "spec06/omnetpp", "SandyBridge")
	b.ResetTimer()
	var cv *experiment.Curve
	for i := 0; i < b.N; i++ {
		var err error
		cv, err = experiment.CurveFor(ds, []string{"poly1"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cv.Errors["poly1"]*100, "maxerr_poly1_%")
}

// BenchmarkFigure9 regenerates Figure 9: the fitted slope of
// spec17/xalancbmk_s on Broadwell exceeds 1 — each walk cycle costs more
// than one runtime cycle because walker fills pollute the caches.
func BenchmarkFigure9(b *testing.B) {
	ds := dataset(b, "spec17/xalancbmk_s", "Broadwell")
	b.ResetTimer()
	var slope float64
	for i := 0; i < b.N; i++ {
		var err error
		slope, err = experiment.FittedSlope(ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(slope, "alpha_slope")
}

// BenchmarkFigure10 regenerates Figure 10: gups/16GB on SandyBridge needs
// a second-order polynomial (paper: linear errs 13%, poly2 ≤ 2%).
func BenchmarkFigure10(b *testing.B) {
	ds := dataset(b, "gups/16GB", "SandyBridge")
	b.ResetTimer()
	var cv *experiment.Curve
	for i := 0; i < b.N; i++ {
		var err error
		cv, err = experiment.CurveFor(ds, []string{"poly1", "poly2", "poly3"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cv.Errors["poly1"]*100, "maxerr_poly1_%")
	b.ReportMetric(cv.Errors["poly2"]*100, "maxerr_poly2_%")
}

// BenchmarkFigure11 regenerates Figure 11: predicting the 1GB-pages layout
// of gapbs/pr-twitter on SandyBridge (paper: Yaniv 10% off, Mosmodel 1%).
func BenchmarkFigure11(b *testing.B) {
	ds := dataset(b, "gapbs/pr-twitter", "SandyBridge")
	b.ResetTimer()
	var res map[string]float64
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.CaseStudy1G(ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res["yaniv"]*100, "err1g_yaniv_%")
	b.ReportMetric(res["mosmodel"]*100, "err1g_mosmodel_%")
}

// BenchmarkTable6 regenerates Table 6: K-fold cross-validation maximal
// errors of the new models (paper: poly1 36.4%, poly2 19.1%, poly3 20.0%,
// mosmodel 4.3%).
func BenchmarkTable6(b *testing.B) {
	all := allDatasets(b)
	b.ResetTimer()
	var worst map[string]float64
	for i := 0; i < b.N; i++ {
		var err error
		worst, err = experiment.Table6(all, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportWorst(b, worst, models.NewNames)
}

// BenchmarkTable7 regenerates Table 7: the 4KB-vs-2MB counter comparison
// of spec17/xalancbmk_s on Broadwell, including the program/walker split.
func BenchmarkTable7(b *testing.B) {
	ds := dataset(b, "spec17/xalancbmk_s", "Broadwell")
	b.ResetTimer()
	var rows []experiment.Table7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Table7(ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Name == "L3 loads" {
			b.ReportMetric(float64(r.Program4K)/float64(r.Program2M), "l3_loads_4k_over_2m")
		}
	}
}

// BenchmarkTable8 regenerates Table 8: R² of single-variable linear
// regressions in C, M, and H per workload per machine.
func BenchmarkTable8(b *testing.B) {
	all := allDatasets(b)
	b.ResetTimer()
	var rows []experiment.Table8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Table8(all)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "workload_rows")
}

// BenchmarkCaseStudy1GB regenerates the §VII-D validation across the whole
// suite: worst error predicting the held-out 1GB-pages layout.
func BenchmarkCaseStudy1GB(b *testing.B) {
	all := allDatasets(b)
	b.ResetTimer()
	worst := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for k := range worst {
			delete(worst, k)
		}
		for _, ds := range all {
			res, err := experiment.CaseStudy1G(ds)
			if err != nil {
				b.Fatal(err)
			}
			for m, e := range res {
				if e > worst[m] {
					worst[m] = e
				}
			}
		}
	}
	reportWorst(b, worst, []string{"basu", "yaniv", "mosmodel"})
}

// --- Ablation benchmarks (DESIGN.md's key design decisions) ---

// ablationRun replays gups/16GB's trace under a 4KB layout on a machine
// built by configure, returning the counters.
func ablationRun(b *testing.B, plat arch.Platform, configure func(*cpu.Machine)) (uint64, uint64) {
	b.Helper()
	w, err := workloads.ByName("gups/16GB")
	if err != nil {
		b.Fatal(err)
	}
	wd, err := benchRunner.Prepare(w)
	if err != nil {
		b.Fatal(err)
	}
	proc, err := libc.NewProcess(1 << 36)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mosalloc.Attach(proc, wd.Target.Baseline4K().Cfg); err != nil {
		b.Fatal(err)
	}
	machine, err := cpu.New(plat.Scaled(), proc.Space())
	if err != nil {
		b.Fatal(err)
	}
	if configure != nil {
		configure(machine)
	}
	ctr, err := machine.Run(wd.Trace)
	if err != nil {
		b.Fatal(err)
	}
	return ctr.R, ctr.C
}

// BenchmarkAblationNoPollution gives the walker a private cache so its
// loads no longer share the hierarchy with program data, and reports the
// runtime ratio: pollution is one of the mechanisms behind slopes above 1
// (Figure 9, Table 7).
func BenchmarkAblationNoPollution(b *testing.B) {
	var base, noPol uint64
	for i := 0; i < b.N; i++ {
		base, _ = ablationRun(b, arch.Broadwell, nil)
		noPol, _ = ablationRun(b, arch.Broadwell, func(m *cpu.Machine) {
			if err := m.Hierarchy().SetWalkerPrivate(arch.Broadwell.Scaled()); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.ReportMetric(float64(base)/float64(noPol), "runtime_ratio_pollution")
}

// BenchmarkAblationNoHiding removes latency hiding entirely: every walk
// stalls the pipeline for its full latency. Without hiding, runtime is a
// near-perfect linear function of C and the paper's whole phenomenon
// (Figures 3, 7, 10) disappears.
func BenchmarkAblationNoHiding(b *testing.B) {
	noHide := arch.Broadwell
	noHide.OOO.HideMax = 0
	noHide.OOO.IndepWalkHide = 0
	noHide.OOO.L2TLBHitHide = 0
	var base, stall uint64
	for i := 0; i < b.N; i++ {
		base, _ = ablationRun(b, arch.Broadwell, nil)
		stall, _ = ablationRun(b, noHide, nil)
	}
	b.ReportMetric(float64(stall)/float64(base), "runtime_ratio_no_hiding")
}

// BenchmarkAblationOneWalker removes Broadwell's second page walker and
// reports C/R with one and two walkers: only with two can the walk-cycle
// counter exceed the runtime (§VI-D's negative Basu β).
func BenchmarkAblationOneWalker(b *testing.B) {
	oneWalker := arch.Broadwell
	oneWalker.PageWalkers = 1
	var r2, c2, r1, c1 uint64
	for i := 0; i < b.N; i++ {
		r2, c2 = ablationRun(b, arch.Broadwell, nil)
		r1, c1 = ablationRun(b, oneWalker, nil)
	}
	b.ReportMetric(float64(c2)/float64(r2), "c_over_r_two_walkers")
	b.ReportMetric(float64(c1)/float64(r1), "c_over_r_one_walker")
}

// BenchmarkAblationLassoVsOLS compares Mosmodel's budgeted fit against an
// unrestricted 20-coefficient OLS cubic under cross-validation on samples
// with realistic measurement noise (the paper tolerates up to 5% runtime
// variation, §VI-A): the unrestricted cubic overfits 54 samples — the
// one-in-ten rule of §VI-C.
func BenchmarkAblationLassoVsOLS(b *testing.B) {
	ds := dataset(b, "spec17/xalancbmk_s", "Broadwell")
	noisy := make([]pmu.Sample, len(ds.Samples))
	rng := rand.New(rand.NewSource(7))
	for i, s := range ds.Samples {
		s.R *= 1 + 0.02*rng.NormFloat64()
		noisy[i] = s
	}
	var budgeted, unrestricted float64
	for i := 0; i < b.N; i++ {
		var err error
		budgeted, err = models.CrossValidate(func() models.Model {
			return models.NewMosmodel()
		}, noisy, 6, 1)
		if err != nil {
			b.Fatal(err)
		}
		unrestricted, err = models.CrossValidate(func() models.Model {
			m := models.NewMosmodel()
			m.MaxNonzero = 0 // no coefficient budget
			return m
		}, noisy, 6, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(budgeted*100, "cv_err_budgeted_%")
	b.ReportMetric(unrestricted*100, "cv_err_unrestricted_%")
}

// BenchmarkAblationHeuristics compares the sample diversity of the layout
// heuristics on a hot-region workload (§VI-B: random windows typically
// either back or miss the whole hot region, clustering samples at the
// extremes; the sliding window spreads them). Diversity is measured as the
// fraction of ten equal walk-cycle bins a heuristic's samples occupy.
func BenchmarkAblationHeuristics(b *testing.B) {
	ds := dataset(b, "graph500/2GB", "SandyBridge")
	var lo, hi float64
	for _, s := range ds.Samples {
		if lo == 0 || s.C < lo {
			lo = s.C
		}
		if s.C > hi {
			hi = s.C
		}
	}
	coverage := func(prefix string) float64 {
		bins := map[int]bool{}
		n := 0
		for _, s := range ds.Samples {
			if len(s.Layout) < len(prefix) || s.Layout[:len(prefix)] != prefix {
				continue
			}
			n++
			bin := int((s.C - lo) / (hi - lo + 1) * 10)
			bins[bin] = true
		}
		if n == 0 {
			return 0
		}
		return float64(len(bins)) / 10
	}
	var slide, random float64
	for i := 0; i < b.N; i++ {
		slide = coverage("slide")
		random = coverage("rand")
	}
	b.ReportMetric(slide, "c_bin_coverage_sliding")
	b.ReportMetric(random, "c_bin_coverage_random")
}

// --- Micro-benchmarks of the simulator's hot paths ---

// BenchmarkMosallocAlloc measures the allocator's first-fit path.
func BenchmarkMosallocAlloc(b *testing.B) {
	proc, err := libc.NewProcess(1 << 38)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mosalloc.Config{
		HeapPool:      mosalloc.Uniform(mem.Page4K, 64<<20),
		AnonPool:      mosalloc.Uniform(mem.Page2M, 256<<20),
		FilePoolBytes: 1 << 20,
	}
	if _, err := mosalloc.Attach(proc, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := proc.Mmap(64<<10, libc.MapFlags{Kind: libc.MapAnonymous})
		if err != nil {
			b.Fatal(err)
		}
		if err := proc.Munmap(a, 64<<10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures end-to-end simulation throughput in accesses
// per second (the figure that bounds the full sweep's wall time).
func BenchmarkReplay(b *testing.B) {
	w, err := workloads.ByName("gups/8GB")
	if err != nil {
		b.Fatal(err)
	}
	wd, err := benchRunner.Prepare(w)
	if err != nil {
		b.Fatal(err)
	}
	lay := wd.Target.Baseline4K()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchRunner.RunLayout(wd, arch.SandyBridge, lay); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(wd.Trace.Len()), "accesses/replay")
}

// BenchmarkSweepQuick measures an end-to-end Quick-protocol sweep — 2
// workloads × 3 platforms, 60 replays — through the staged pipeline:
// sweep-wide scheduler, pooled engines, address spaces shared across
// platforms. Traces are cached on disk outside the timer so iterations
// measure the planning and replay stages the engine layer accelerates,
// on a fresh Runner each time (no dataset cache hits).
func BenchmarkSweepQuick(b *testing.B) {
	var ws []workloads.Workload
	for _, name := range []string{"gups/8GB", "spec06/mcf"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
	}
	plats := []arch.Platform{arch.SandyBridge, arch.Haswell, arch.Broadwell}
	dir := b.TempDir()
	warm := experiment.NewRunner()
	warm.TraceDir = dir
	for _, w := range ws {
		if _, err := warm.Prepare(w); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiment.NewRunner()
		r.Proto = experiment.Quick
		r.TraceDir = dir
		dss, err := r.CollectAll(ws, plats, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(dss) != len(ws)*len(plats) {
			b.Fatalf("%d datasets, want %d", len(dss), len(ws)*len(plats))
		}
	}
}

// BenchmarkTraceGeneration measures workload trace generation.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		proc, err := libc.NewProcess(1 << 38)
		if err != nil {
			b.Fatal(err)
		}
		w := workloads.NewGUPS("8GB", 32<<20)
		heap, anon := w.PoolBytes()
		cfg := mosalloc.Config{
			HeapPool:      mosalloc.Uniform(mem.Page4K, heap),
			AnonPool:      mosalloc.Uniform(mem.Page4K, anon),
			FilePoolBytes: 1 << 20,
		}
		if _, err := mosalloc.Attach(proc, cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := w.Generate(workloads.NewAllocator(proc)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceLoad measures loading a cached workload trace from disk in
// the default (MOSTRC02) format — the cost every cached-trace sweep pays
// per workload before any replay starts.
func BenchmarkTraceLoad(b *testing.B) {
	w, err := workloads.ByName("gups/8GB")
	if err != nil {
		b.Fatal(err)
	}
	wd, err := benchRunner.Prepare(w)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "trace.mostrc")
	if err := wd.Trace.Save(path); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := trace.Load(path)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() != wd.Trace.Len() {
			b.Fatalf("loaded %d accesses, want %d", tr.Len(), wd.Trace.Len())
		}
	}
}

// BenchmarkModelFit measures fitting all nine models on one dataset.
func BenchmarkModelFit(b *testing.B) {
	ds := dataset(b, "gups/8GB", "SandyBridge")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.EvaluateModels(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergence reproduces §VI-C's observation that cross-validation
// needs more than 54 samples to converge: it reports Mosmodel's CV maximal
// error with the 54-layout standard protocol and with the ~102-layout
// extended protocol.
func BenchmarkConvergence(b *testing.B) {
	w, err := workloads.ByName("gups/16GB")
	if err != nil {
		b.Fatal(err)
	}
	std := dataset(b, "gups/16GB", "Haswell")
	ext := experiment.NewRunner()
	ext.Proto = experiment.Extended
	extDS, err := ext.Collect(w, arch.Haswell)
	if err != nil {
		b.Fatal(err)
	}
	factory := func() models.Model { return models.NewMosmodel() }
	var e54, e102 float64
	for i := 0; i < b.N; i++ {
		if e54, err = models.CrossValidate(factory, std.Samples, 6, 1); err != nil {
			b.Fatal(err)
		}
		if e102, err = models.CrossValidate(factory, extDS.Samples, 6, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(e54*100, "cv_err_54_samples_%")
	b.ReportMetric(e102*100, "cv_err_102_samples_%")
}
