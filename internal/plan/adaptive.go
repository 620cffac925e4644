package plan

import (
	"context"
	"fmt"

	"mosaic/internal/arch"
	"mosaic/internal/binfmt"
	"mosaic/internal/experiment"
	"mosaic/internal/pmu"
	"mosaic/internal/sim"
	"mosaic/internal/workloads"
)

// Adaptive runs the planner over one (workload, platform) pair of an
// experiment pipeline: prepare the trace, plan the pair's deterministic
// layout protocol, then let Run spend probe and promotion budget over
// it. The returned dataset carries the best-known sample per layout
// (exact where promoted, probe elsewhere) and is shaped exactly like a
// CollectAll dataset, so model training and the registry consume it
// unchanged. MeasuredAccesses/TotalAccesses record the planned sweep's
// cost against the full exact protocol's.
//
// cfg.Seed 0 derives the seed from the pair key — the same convention
// the protocol's randomized layouts use — and nil cfg.Anchors defaults
// to the 4KB/2MB baselines. Determinism: same pair + seed + budget ⇒
// identical promotion sequence and bit-identical samples.
func Adaptive(ctx context.Context, r *experiment.Runner, w workloads.Workload, plat arch.Platform, cfg Config, onStep func(Step), onProgress func(sim.Progress)) (*experiment.Dataset, *Report, error) {
	wd, err := r.Prepare(w)
	if err != nil {
		return nil, nil, err
	}
	lays := r.ProtocolLayouts(wd, plat)
	if cfg.Seed == 0 {
		cfg.Seed = int64(binfmt.FNV1a(w.Name()+"@"+plat.Name) & 0x7fffffffffffffff)
	}
	if cfg.Anchors == nil {
		cfg.Anchors = []string{"4KB", "2MB"}
	}
	m := &experiment.PairMeasurer{R: r, WD: wd, Plat: plat, OnProgress: onProgress}
	rep, err := Run(ctx, m, lays, cfg, onStep)
	if err != nil {
		return nil, nil, err
	}
	ds, err := assembleDataset(w.Name(), plat.Name, rep)
	if err != nil {
		return nil, nil, err
	}
	return ds, rep, nil
}

// assembleDataset folds a planner report into the pipeline's dataset
// shape, mirroring experiment.CollectAll's assembly: samples in protocol
// order, the 1GB validation point split out, TLB sensitivity from the
// 4KB→1GB runtime drop.
func assembleDataset(workload, platform string, rep *Report) (*experiment.Dataset, error) {
	ds := &experiment.Dataset{
		Workload: workload,
		Platform: platform,
		Counters: make(map[string]pmu.Counters, len(rep.Points)),
		// The planned sweep's access cost stands in for sampled-replay
		// coverage: counters are a fidelity mix, bought for CostAccesses
		// out of the exact protocol's FullCostAccesses.
		MeasuredAccesses: rep.CostAccesses,
		TotalAccesses:    rep.FullCostAccesses,
	}
	for _, pt := range rep.Points {
		ds.Counters[pt.Layout.Name] = pt.Counters
		if pt.Layout.Name == validationLayout {
			ds.Sample1G = pt.Sample
		} else {
			ds.Samples = append(ds.Samples, pt.Sample)
		}
	}
	s4k, ok := ds.Baseline("4KB")
	if !ok {
		return nil, fmt.Errorf("plan: protocol produced no 4KB baseline")
	}
	ds.TLBSensitive = s4k.R > 0 && (s4k.R-ds.Sample1G.R)/s4k.R >= 0.05
	return ds, nil
}
