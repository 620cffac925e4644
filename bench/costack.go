package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"mosaic/internal/arch"
	"mosaic/internal/cache"
	"mosaic/internal/experiment"
	"mosaic/internal/layout"
	"mosaic/internal/mem"
	"mosaic/internal/serve"
	"mosaic/internal/serve/registry"
	"mosaic/internal/sim"
	"mosaic/internal/tlb"
	"mosaic/internal/trace"
	"mosaic/internal/walker"
)

// stackStreamCap bounds the accesses each layer loop of the cost stack
// replays, so stretched traces cost a traced run seconds, not minutes.
// Bundled traces (120K accesses) replay whole.
const stackStreamCap = 1 << 19

// stackTotals accumulates the cost stack's operation counts.
type stackTotals struct {
	loaded, stream, walks, engine int
	entryLoads, pwcHits, misses4K uint64
	lookups4K                     uint64
	l1Program, l2Program          uint64
	walkerLoads, programLoads     uint64
}

// layerProbes runs the traced run's per-layer measurements: the cost
// stack, model fitting, and the in-process predict path.
func (r *run) layerProbes(pairs []pairRef, sampling sim.Sampling, dss []*experiment.Dataset, reg *registry.Registry, cases []predictCase) error {
	if err := r.costStack(pairs, sampling); err != nil {
		return err
	}
	if err := r.fitProbe(dss); err != nil {
		return err
	}
	return r.predictProbes(reg, cases)
}

// costStack replays each Broadwell pair's trace one layer at a time at its
// 4KB and 2MB layouts and one seeded protocol layout: decode, translate the
// VA column, look each translation up in the TLB, walk the TLB-miss
// substream, stream the physical program addresses through the cache
// hierarchy, then run the low- and high-fidelity partial simulators and
// the full machine over the whole trace. Layer times are span self times
// divided by the operations each layer performed.
func (r *run) costStack(pairs []pairRef, sampling sim.Sampling) error {
	root := r.rec.Begin("costack", "costack", 0)
	defer r.rec.End(root)
	var t stackTotals
	for _, p := range pairs {
		if p.plat.Name != arch.Broadwell.Name {
			continue
		}
		four, ok4 := layoutNamed(p.lays, "4KB")
		two, ok2 := layoutNamed(p.lays, "2MB")
		if !ok4 || !ok2 {
			return fmt.Errorf("%s protocol lacks a 4KB or 2MB layout", p.wd.Workload.Name())
		}
		path := filepath.Join(r.o.WorkDir, "costack-"+strconv.Itoa(t.loaded)+".mostrace")
		if err := p.wd.Trace.Save(path); err != nil {
			return err
		}
		id := r.rec.Begin("trace.Load", path, root)
		tr, err := trace.Load(path)
		r.rec.End(id)
		if err != nil {
			return err
		}
		r.op(tr.Len() == p.wd.Trace.Len(), "%s: reloaded trace has %d accesses, want %d", path, tr.Len(), p.wd.Trace.Len())
		t.loaded += tr.Len()
		for _, lay := range []layout.Layout{four, two, p.lays[r.rng.Intn(len(p.lays))]} {
			if err := r.stackLayout(&t, p, lay, sampling, root); err != nil {
				return err
			}
		}
	}
	if t.stream == 0 {
		return fmt.Errorf("no Broadwell pair to build the cost stack from")
	}
	layers := LayerTimes(r.rec.Spans())
	per := func(name string, n int) float64 { return float64(selfOf(layers, name)) / float64(n) }
	r.set("trace.load_ns_per_access", per("trace.Load", t.loaded))
	r.set("mem.translate_ns", per("mem.Translate", t.stream))
	r.set("tlb.lookup_ns", per("tlb.Lookup", t.stream))
	r.set("tlb.walk_rate", float64(t.misses4K)/float64(t.lookups4K))
	r.set("walker.walk_ns", per("walker.Walk", max(1, t.walks)))
	r.set("walker.refs_per_walk", float64(t.entryLoads)/float64(max(1, t.walks)))
	r.set("walker.pwc_hit_ratio", float64(t.pwcHits)/float64(max(1, t.walks)))
	r.set("cache.access_ns", per("cache.Access", t.stream))
	r.set("cache.l1_hit_ratio", 1-float64(t.l2Program)/float64(t.l1Program))
	r.set("cache.walker_load_share", float64(t.walkerLoads)/float64(t.walkerLoads+t.programLoads))
	lofi, hifi, full := per("partialsim.Partial", t.engine), per("partialsim.HighFidelity", t.engine), per("cpu.Full", t.engine)
	r.set("partialsim.ns_per_access", lofi)
	r.set("partialsim.hifi_ns_per_access", hifi)
	r.set("cpu.ns_per_access", full)
	r.set("cpu.timing_ns_per_access", full-hifi)
	// The walker's share of a partial simulation: walk time per access of
	// the layer streams against the partial simulator's time per access.
	r.detail("walker.share_of_partialsim", "ratio", per("walker.Walk", t.stream)/lofi)
	return nil
}

func layoutNamed(lays []layout.Layout, name string) (layout.Layout, bool) {
	for _, l := range lays {
		if l.Name == name {
			return l, true
		}
	}
	return layout.Layout{}, false
}

// stackLayout runs the cost stack's layers for one layout and checks that
// the layers recompose into the engines and the engines into the sweep.
func (r *run) stackLayout(t *stackTotals, p pairRef, lay layout.Layout, sampling sim.Sampling, parent int) error {
	plat := p.plat.Scaled()
	tr := p.wd.Trace
	cols := tr.Columns()
	n := min(cols.Len(), stackStreamCap)
	label := p.wd.Workload.Name() + "@" + plat.Name + "/" + lay.Name
	space, err := sim.BuildSpace(physMem, lay.Cfg)
	if err != nil {
		return err
	}

	trans := mem.NewTranslator(space.PageTable())
	phys := make([]mem.Addr, n)
	sizes := make([]mem.PageSize, n)
	id := r.rec.Begin("mem.Translate", label, parent)
	for i := 0; i < n; i++ {
		pa, ps, ok := trans.Translate(cols.VA(i))
		if !ok {
			r.rec.End(id)
			return fmt.Errorf("%s: access %d faults", label, i)
		}
		phys[i], sizes[i] = pa, ps
	}
	r.rec.End(id)

	tl := tlb.New(plat.TLB)
	misses := make([]mem.Addr, 0, n/2)
	id = r.rec.Begin("tlb.Lookup", label, parent)
	for i := 0; i < n; i++ {
		va := cols.VA(i)
		if tl.Lookup(va, sizes[i]) == tlb.Miss {
			tl.Insert(va, sizes[i])
			misses = append(misses, va)
		}
	}
	r.rec.End(id)
	tc := tl.Counts()

	hier, err := cache.NewHierarchy(plat)
	if err != nil {
		return err
	}
	wk := walker.New(mem.NewTranslator(space.PageTable()), hier, plat.PWC)
	var walkCycles uint64
	id = r.rec.Begin("walker.Walk", label, parent)
	for _, va := range misses {
		res := wk.Walk(va)
		if res.Fault {
			r.rec.End(id)
			return fmt.Errorf("%s: walk of %#x faults", label, uint64(va))
		}
		walkCycles += uint64(res.Latency)
	}
	r.rec.End(id)
	ws := wk.Stats()

	data, err := cache.NewHierarchy(plat)
	if err != nil {
		return err
	}
	id = r.rec.Begin("cache.Access", label, parent)
	for _, pa := range phys {
		data.Access(pa, false)
	}
	r.rec.End(id)
	cs := data.Stats()

	lo, err := sim.NewPartial(plat, space)
	if err != nil {
		return err
	}
	hi, err := sim.NewPartial(plat, space)
	if err != nil {
		return err
	}
	hi.HighFidelity = true
	fu, err := sim.NewFull(plat, space)
	if err != nil {
		return err
	}
	var lofi, hifi, full sim.Result
	for _, e := range []struct {
		name string
		eng  sim.Engine
		res  *sim.Result
	}{{"partialsim.Partial", lo, &lofi}, {"partialsim.HighFidelity", hi, &hifi}, {"cpu.Full", fu, &full}} {
		id := r.rec.Begin(e.name, label, parent)
		*e.res, err = e.eng.RunSampled(tr, sampling)
		r.rec.End(id)
		if err != nil {
			return err
		}
	}

	msg := p.match(lay.Name, full)
	r.op(msg == "", "cost stack %s", msg)
	fc, hc := full.Counters, hifi.Counters
	r.op(hc.H == fc.H && hc.M == fc.M && hc.C == fc.C && hc.TLBLookups == fc.TLBLookups,
		"%s: high-fidelity partial simulation (H %d M %d C %d) differs from the full machine (H %d M %d C %d)",
		label, hc.H, hc.M, hc.C, fc.H, fc.M, fc.C)
	if n == cols.Len() && !sampling.Enabled() {
		lc := lofi.Counters
		r.op(tc.L2Hits == lc.H && tc.Misses == lc.M && walkCycles == lc.C && ws.EntryLoads == lofi.WalkRefs,
			"%s: layers (H %d M %d C %d refs %d) differ from the partial simulator (H %d M %d C %d refs %d)",
			label, tc.L2Hits, tc.Misses, walkCycles, ws.EntryLoads, lc.H, lc.M, lc.C, lofi.WalkRefs)
	}

	t.stream += n
	t.walks += len(misses)
	t.engine += tr.Len()
	t.entryLoads += ws.EntryLoads
	t.pwcHits += ws.PWCHitPML4 + ws.PWCHitPDPT + ws.PWCHitPD
	if lay.Name == "4KB" {
		t.misses4K += tc.Misses
		t.lookups4K += tc.Lookups
	}
	t.l1Program += cs.L1Loads.Program
	t.l2Program += cs.L2Loads.Program
	t.walkerLoads += fc.L1DLoadsWalker
	t.programLoads += fc.L1DLoadsProgram
	return nil
}

// fitProbe times fitting every registry model on each dataset.
func (r *run) fitProbe(dss []*experiment.Dataset) error {
	var fits []float64
	for _, ds := range dss {
		id := r.rec.Begin("models.fit", ds.Key(), 0)
		t0 := time.Now()
		_, _, err := ds.TrainModels(nil)
		fits = append(fits, ms(time.Since(t0)))
		r.rec.End(id)
		if err != nil {
			return err
		}
	}
	r.set("models.fit_ms", median(fits))
	return nil
}

// registryProbeCalls and batcherProbeCalls size the in-process predict
// probes: the registry call takes nanoseconds, the batcher call about one
// batch window.
const (
	registryProbeCalls = 50000
	batcherProbeCalls  = 200
)

// predictProbes times the predict path below HTTP: registry.Predict and a
// single caller through serve.Batcher, over the run's request mix, and
// checks their answers.
func (r *run) predictProbes(reg *registry.Registry, cases []predictCase) error {
	id := r.rec.Begin("registry.Predict", "probe", 0)
	bad := 0
	for i := 0; i < registryProbeCalls; i++ {
		c := cases[i%len(cases)]
		got, err := reg.Predict(c.req)
		if err != nil || !samePrediction(got, c.want) {
			bad++
		}
	}
	r.rec.End(id)
	r.op(bad == 0, "registry.Predict: %d of %d answers differ from the mix's", bad, registryProbeCalls)

	b := serve.NewBatcher(reg, serve.BatcherConfig{})
	defer b.Close()
	calls := batcherProbeCalls
	if r.o.Small {
		calls = 20
	}
	bad = 0
	id = r.rec.Begin("serve.Batcher.Predict", "probe", 0)
	for i := 0; i < calls; i++ {
		c := cases[i%len(cases)]
		got, err := b.Predict(context.Background(), c.req)
		if err != nil || !samePrediction(got, c.want) {
			bad++
		}
	}
	r.rec.End(id)
	r.op(bad == 0, "serve.Batcher.Predict: %d of %d answers differ from the mix's", bad, calls)

	layers := LayerTimes(r.rec.Spans())
	r.set("registry.predict_ns", float64(selfOf(layers, "registry.Predict"))/registryProbeCalls)
	r.set("serve.batcher_predict_us", float64(selfOf(layers, "serve.Batcher.Predict"))/float64(calls)/1e3)
	return nil
}
