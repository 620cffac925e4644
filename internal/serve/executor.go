package serve

import (
	"context"
	"fmt"
	"sync"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/plan"
	"mosaic/internal/serve/registry"
	"mosaic/internal/sim"
	"mosaic/internal/workloads"
)

// SweepExecutor is the production JobExecutor: each job gets a fresh
// experiment pipeline (dataset caches are keyed only by workload@platform,
// so sharing a pipeline across jobs with different protocols or sampling
// configs would alias results), while the on-disk trace cache is shared so
// workload generation happens once across the daemon's lifetime.
type SweepExecutor struct {
	// TraceDir, when set, caches generated traces across jobs and restarts.
	TraceDir string
	// Parallelism bounds each job's internal worker pool (0 = GOMAXPROCS).
	Parallelism int
	// Registry, when set, receives trained models from Train jobs.
	Registry *registry.Registry

	mu     sync.Mutex
	active map[*experiment.Runner]struct{}
}

// Run implements JobExecutor.
func (e *SweepExecutor) Run(ctx context.Context, spec JobSpec, onProgress func(sim.Progress), onCurve func(plan.Step)) (*JobResult, []StageTimeView, error) {
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		return nil, nil, err
	}
	plat, err := arch.ByName(spec.Platform)
	if err != nil {
		return nil, nil, err
	}
	proto, err := spec.proto()
	if err != nil {
		return nil, nil, err
	}
	mode, err := spec.mode()
	if err != nil {
		return nil, nil, err
	}
	r := experiment.NewRunner()
	r.Proto = proto
	r.Sampling = spec.Sampling.toSim()
	r.TraceDir = e.TraceDir
	if e.Parallelism > 0 {
		r.Parallelism = e.Parallelism
	}
	e.track(r, true)
	defer e.track(r, false)

	var ds *experiment.Dataset
	var adaptive *AdaptiveResult
	if mode == "adaptive" {
		ds, adaptive, err = e.runAdaptive(ctx, r, w, plat, spec, onCurve)
	} else {
		var dss []*experiment.Dataset
		dss, err = r.CollectAllCtx(ctx, []workloads.Workload{w}, []arch.Platform{plat}, onProgress)
		if err == nil {
			if len(dss) != 1 {
				err = fmt.Errorf("serve: sweep produced %d datasets, want 1", len(dss))
			} else {
				ds = dss[0]
			}
		}
	}
	stages := stageViews(r.StageTimes())
	if err != nil {
		return nil, stages, err
	}
	if spec.Train && e.Registry != nil {
		if err := e.Registry.Train(ds, nil); err != nil {
			return nil, stages, fmt.Errorf("serve: training models: %w", err)
		}
	}
	res := resultFromDataset(ds)
	res.Adaptive = adaptive
	return res, stages, nil
}

// runAdaptive executes an active-learning planned sweep (internal/plan):
// probe every protocol layout at the planner's cheap fidelity, promote
// the highest-uncertainty layouts to exact measurement until the error
// target or budget stops it. The per-round error-vs-cost curve streams
// through onCurve into the job's live progress.
func (e *SweepExecutor) runAdaptive(ctx context.Context, r *experiment.Runner, w workloads.Workload, plat arch.Platform, spec JobSpec, onCurve func(plan.Step)) (*experiment.Dataset, *AdaptiveResult, error) {
	a := spec.Adaptive
	if a == nil {
		a = &AdaptiveSpec{}
	}
	cfg := plan.Config{
		ErrorTarget:   a.ErrorTarget,
		MaxPromotions: a.Budget,
		Seed:          a.Seed,
		// An explicit job sampling spec overrides the planner's probe
		// fidelity; the zero spec keeps the aggressive default probe.
		ProbeSampling: spec.Sampling.toSim(),
	}
	ds, rep, err := plan.Adaptive(ctx, r, w, plat, cfg, onCurve, nil)
	if err != nil {
		return nil, nil, err
	}
	return ds, &AdaptiveResult{
		Promotions:       rep.Promotions,
		PredictedMaxErr:  rep.PredictedMaxErr,
		ProbeAccesses:    rep.ProbeAccesses,
		ExactAccesses:    rep.ExactAccesses,
		CostAccesses:     rep.CostAccesses,
		FullCostAccesses: rep.FullCostAccesses,
		CostRatio:        rep.CostRatio(),
		Stopped:          rep.Stopped,
		Curve:            rep.Steps,
	}, nil
}

// track registers or unregisters a live pipeline for the occupancy gauge.
func (e *SweepExecutor) track(r *experiment.Runner, on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.active == nil {
		e.active = make(map[*experiment.Runner]struct{})
	}
	if on {
		e.active[r] = struct{}{}
	} else {
		delete(e.active, r)
	}
}

// PoolIdle sums the idle pooled engines across every live job pipeline —
// the sim-pool occupancy gauge on /metrics.
func (e *SweepExecutor) PoolIdle() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for r := range e.active {
		n += r.PoolIdle()
	}
	return n
}
