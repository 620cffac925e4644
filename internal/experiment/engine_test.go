package experiment

import (
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/cpu"
	"mosaic/internal/sim"
	"mosaic/internal/workloads"
)

// TestCollectCountersBitIdenticalAcrossParallelism is the engine layer's
// determinism contract at the dataset level: the full counter sets — not
// just the derived samples — must match bit for bit between a serial and a
// wide-parallel collection, because every replay runs on private (Reset)
// engine state over immutable shared translation state.
func TestCollectCountersBitIdenticalAcrossParallelism(t *testing.T) {
	w, err := workloads.ByName("gups/8GB")
	if err != nil {
		t.Fatal(err)
	}
	collect := func(par int) *Dataset {
		r := quickRunner()
		r.Parallelism = par
		ds, err := r.Collect(w, arch.SandyBridge)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a := collect(1)
	b := collect(8)
	if len(a.Counters) != len(b.Counters) || len(a.Counters) == 0 {
		t.Fatalf("counter sets sized %d and %d", len(a.Counters), len(b.Counters))
	}
	for name, ca := range a.Counters {
		cb, ok := b.Counters[name]
		if !ok {
			t.Fatalf("layout %s missing from parallel run", name)
		}
		if ca != cb {
			t.Fatalf("layout %s counters differ:\nserial   %+v\nparallel %+v", name, ca, cb)
		}
	}
}

// TestCollectAllMatchesIsolatedCollects: a multi-pair sweep (where pairs
// share the scheduler, engine pool, and space cache) must reproduce each
// pair's counters exactly as an isolated single-pair collection does.
func TestCollectAllMatchesIsolatedCollects(t *testing.T) {
	gups, err := workloads.ByName("gups/8GB")
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := workloads.ByName("spec06/mcf")
	if err != nil {
		t.Fatal(err)
	}
	ws := []workloads.Workload{gups, mcf}
	plats := []arch.Platform{arch.SandyBridge, arch.Haswell}

	sweep := quickRunner()
	sweep.Parallelism = 8
	dss, err := sweep.CollectAll(ws, plats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dss) != 4 {
		t.Fatalf("%d datasets, want 4", len(dss))
	}

	for _, ds := range dss {
		w, err := workloads.ByName(ds.Workload)
		if err != nil {
			t.Fatal(err)
		}
		plat, err := arch.ByName(ds.Platform)
		if err != nil {
			t.Fatal(err)
		}
		iso := quickRunner()
		iso.Parallelism = 1
		want, err := iso.Collect(w, plat)
		if err != nil {
			t.Fatal(err)
		}
		for name, wc := range want.Counters {
			if gc := ds.Counters[name]; gc != wc {
				t.Fatalf("%s: layout %s differs between sweep and isolated run:\nsweep    %+v\nisolated %+v",
					ds.Workload+"@"+ds.Platform, name, gc, wc)
			}
		}
	}
}

// TestCollectMatchesFreshBuildReference is the golden check for the whole
// staged pipeline: replaying each protocol layout with a from-scratch
// machine over a privately built address space — no pooling, no space
// sharing, no scheduler — must reproduce the sweep's counters bit for bit.
func TestCollectMatchesFreshBuildReference(t *testing.T) {
	w, err := workloads.ByName("gups/8GB")
	if err != nil {
		t.Fatal(err)
	}
	r := quickRunner()
	r.Parallelism = 8
	ds, err := r.Collect(w, arch.Haswell)
	if err != nil {
		t.Fatal(err)
	}

	wd, err := r.Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, lay := range r.planLayouts(wd, arch.Haswell, w.Name()+"@"+arch.Haswell.Name) {
		space, err := sim.BuildSpace(physMem, lay.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cpu.New(arch.Haswell.Scaled(), space)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Run(wd.Trace)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := ds.Counters[lay.Name]
		if !ok {
			t.Fatalf("layout %s missing from dataset", lay.Name)
		}
		if got != want {
			t.Fatalf("layout %s: pipeline diverged from fresh-build reference:\npipeline %+v\nfresh    %+v",
				lay.Name, got, want)
		}
	}
}

// TestUnfusedSweepReplaysOneLayoutPerJob: a sweep schedules one replay job
// per layout, so at most Parallelism engines per platform are ever live —
// and the pool holds no more than that idle once the sweep drains.
func TestUnfusedSweepReplaysOneLayoutPerJob(t *testing.T) {
	w, err := workloads.ByName("gups/8GB")
	if err != nil {
		t.Fatal(err)
	}
	plats := []arch.Platform{arch.SandyBridge, arch.Haswell, arch.Broadwell}
	r := quickRunner()
	r.Parallelism = 2
	if _, err := r.Prepare(w); err != nil {
		t.Fatal(err)
	}

	var replay []sim.Progress
	dss, err := r.CollectAll([]workloads.Workload{w}, plats, func(p sim.Progress) {
		if p.Stage == sim.StageReplay.String() {
			replay = append(replay, p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	layouts := 0
	for _, ds := range dss {
		layouts += len(ds.Counters)
	}
	if len(replay) == 0 {
		t.Fatal("no replay-stage progress reported")
	}
	for _, p := range replay {
		if p.Total != layouts {
			t.Fatalf("replay stage has %d jobs, want one per layout (%d)", p.Total, layouts)
		}
	}
	if idle, limit := r.PoolIdle(), r.Parallelism*len(plats); idle > limit {
		t.Errorf("%d idle engines after the sweep, want ≤ %d (Parallelism × platforms)", idle, limit)
	}
}

// TestSweepReplaysEachDistinctSpaceOnce: Standard layouts that resolve to
// the same pool mosaic share a sim.SpaceKey, and the replay stage replays
// only the first of them per pair. The progress Total counts distinct
// spaces, yet every layout — replayed or copied — must carry the counters
// and phase rows of a solo replay of that layout.
func TestSweepReplaysEachDistinctSpaceOnce(t *testing.T) {
	w, err := workloads.ByName("dbindex/btree-point-zipf")
	if err != nil {
		t.Fatal(err)
	}
	plat := arch.SandyBridge
	solo := NewRunner()
	wd, err := solo.Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	lays := solo.ProtocolLayouts(wd, plat)
	keys := make(map[string]string, len(lays)) // space key → first layout
	want := make(map[string]sim.Result, len(lays))
	for _, lay := range lays {
		if _, ok := keys[sim.SpaceKey(lay.Cfg)]; !ok {
			keys[sim.SpaceKey(lay.Cfg)] = lay.Name
		}
		space, err := solo.buildSpace(lay)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solo.replay(wd, plat.Scaled(), lay, space, sim.Sampling{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Phases == nil {
			t.Fatalf("layout %s: no phase rows; the test needs a phased trace", lay.Name)
		}
		want[lay.Name] = res
	}
	if len(keys) >= len(lays) {
		t.Fatalf("%d distinct spaces among %d layouts; the test needs duplicates", len(keys), len(lays))
	}

	t.Run("unfused", func(t *testing.T) {
		r := NewRunner()
		r.Parallelism = 2
		totals := make(map[int]bool)
		dss, err := r.CollectAll([]workloads.Workload{w}, []arch.Platform{plat}, func(p sim.Progress) {
			if p.Stage == sim.StageReplay.String() {
				totals[p.Total] = true
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(totals) != 1 || !totals[len(keys)] {
			t.Errorf("replay stage totals %v, want %d jobs (one per distinct space of %d layouts)",
				totals, len(keys), len(lays))
		}
		ds := dss[0]
		if len(ds.Counters) != len(lays) {
			t.Fatalf("dataset has %d layouts, want %d", len(ds.Counters), len(lays))
		}
		for _, lay := range lays {
			got := sim.Result{Counters: ds.Counters[lay.Name], Phases: ds.Phases[lay.Name]}
			if !got.Equal(want[lay.Name]) {
				t.Fatalf("layout %s: sweep %+v differs from solo replay %+v", lay.Name, got, want[lay.Name])
			}
			if first := keys[sim.SpaceKey(lay.Cfg)]; first != lay.Name && &ds.Phases[first][0] == &ds.Phases[lay.Name][0] {
				t.Fatalf("layout %s shares its phase rows with %s", lay.Name, first)
			}
		}
	})
}
