package serve

import (
	"context"

	"mosaic/internal/serve/registry"
)

// The predict hot path evaluates each request on its handler's own
// goroutine under the registry read lock. A model evaluation takes about a
// microsecond and an uncontended RLock nanoseconds, so handing requests to
// a collector to coalesce them would cost more in goroutine hand-offs and
// timer waits than it could save.

// Batcher evaluates predict requests against the registry and counts them.
type Batcher struct {
	reg *registry.Registry

	batches *Counter
	items   *Counter
}

// BatcherConfig wires a batcher.
type BatcherConfig struct {
	// Metrics, when set, receives the evaluation counters.
	Metrics *Metrics
}

// NewBatcher registers the evaluation counters.
func NewBatcher(reg *registry.Registry, cfg BatcherConfig) *Batcher {
	mx := cfg.Metrics
	if mx == nil {
		mx = NewMetrics()
	}
	return &Batcher{
		reg:     reg,
		batches: mx.NewCounter("mosd_predict_batches_total", "Registry evaluations on the predict path (one per request)."),
		items:   mx.NewCounter("mosd_predict_batched_requests_total", "Predict requests evaluated (one per evaluation)."),
	}
}

// Predict evaluates one request on the caller's goroutine; a request whose
// context is already done is not evaluated.
func (b *Batcher) Predict(ctx context.Context, req registry.Request) (registry.Prediction, error) {
	if err := ctx.Err(); err != nil {
		return registry.Prediction{}, err
	}
	pred, err := b.reg.Predict(req)
	b.batches.Inc()
	b.items.Inc()
	return pred, err
}

// Close is a no-op: the batcher owns no goroutine.
func (b *Batcher) Close() {}
