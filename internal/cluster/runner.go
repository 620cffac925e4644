package cluster

import (
	"context"
	"fmt"
	"sync"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/sim"
	"mosaic/internal/workloads"
)

// ExperimentExecutor runs shards through the experiment pipeline — the
// production ShardExecutor. Workers re-derive the layout protocol locally
// instead of receiving layouts over the wire: protocol planning is a pure
// function of the (workload, platform) pair key (planLayouts seeds from
// it), so a shard spec only needs the span [Lo, Hi) and every worker —
// and the single-node baseline — sees byte-identical layouts at each
// index. The same determinism covers trace generation, which means a
// worker with a cold TraceDir regenerates exactly the trace the
// coordinator's pair would have.
type ExperimentExecutor struct {
	// TraceDir, when set, caches generated traces across shards and
	// restarts (safe to share with a co-located coordinator).
	TraceDir string
	// Parallelism bounds each shard's replay worker pool (0 = GOMAXPROCS).
	Parallelism int

	mu      sync.Mutex
	runners map[string]*experiment.Runner // per protocol name
}

// ExecuteShard implements ShardExecutor: prepare the workload (cached),
// re-plan the pair's protocol, replay the shard's span, and return its
// per-layout results in span order.
func (e *ExperimentExecutor) ExecuteShard(ctx context.Context, spec *ShardSpec, onLayout func(done int)) ([]LayoutResult, error) {
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	plat, err := arch.ByName(spec.Platform)
	if err != nil {
		return nil, err
	}
	r, err := e.runner(spec.Proto)
	if err != nil {
		return nil, err
	}
	wd, err := r.Prepare(w)
	if err != nil {
		return nil, err
	}
	lays := r.ProtocolLayouts(wd, plat)
	if spec.Lo < 0 || spec.Hi > len(lays) || spec.Lo >= spec.Hi {
		return nil, fmt.Errorf("cluster: shard %s spans [%d, %d) but protocol %q has %d layouts — coordinator/worker protocol skew",
			spec.Key, spec.Lo, spec.Hi, spec.Proto, len(lays))
	}
	span := lays[spec.Lo:spec.Hi]
	onProgress := progressToLayouts(len(span), onLayout)
	results, err := r.MeasureLayouts(ctx, wd, plat, span, spec.Sampling, onProgress)
	if err != nil {
		return nil, err
	}
	out := make([]LayoutResult, len(span))
	for i, lay := range span {
		out[i] = LayoutResult{Layout: lay.Name, Result: results[i]}
	}
	return out, nil
}

// progressToLayouts adapts the replay scheduler's batch-job progress to a
// completed-layout estimate for heartbeats. Batches are evenly spanned, so
// the linear scaling is exact at batch boundaries.
func progressToLayouts(layouts int, onLayout func(done int)) func(p sim.Progress) {
	if onLayout == nil {
		return nil
	}
	return func(p sim.Progress) {
		if p.Total > 0 {
			onLayout(layouts * p.Done / p.Total)
		}
	}
}

// runner returns the executor's shared pipeline for a protocol, building
// it on first use. One runner per protocol keeps trace preparation and
// engine pools shared across shards without aliasing protocol plans;
// sampling never touches runner state (MeasureLayouts takes it
// explicitly), so shards with different fidelities share a runner safely.
func (e *ExperimentExecutor) runner(proto string) (*experiment.Runner, error) {
	p, err := protocolByName(proto)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.runners == nil {
		e.runners = make(map[string]*experiment.Runner)
	}
	if r, ok := e.runners[proto]; ok {
		return r, nil
	}
	r := experiment.NewRunner()
	r.Proto = p
	r.TraceDir = e.TraceDir
	if e.Parallelism > 0 {
		r.Parallelism = e.Parallelism
	}
	e.runners[proto] = r
	return r, nil
}

// protocolByName maps the wire protocol name (the /v1/jobs vocabulary) to
// the experiment enum.
func protocolByName(name string) (experiment.Protocol, error) {
	switch name {
	case "", "standard":
		return experiment.Standard, nil
	case "quick":
		return experiment.Quick, nil
	case "extended":
		return experiment.Extended, nil
	}
	return 0, fmt.Errorf("cluster: unknown proto %q (want quick, standard, or extended)", name)
}

// PoolIdle sums idle pooled engines across the executor's pipelines — the
// worker-side occupancy gauge.
func (e *ExperimentExecutor) PoolIdle() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, r := range e.runners {
		n += r.PoolIdle()
	}
	return n
}
