package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mosaic/internal/plan"
	"mosaic/internal/sim"
)

// TestSubmitRejectKeepsConcurrentAccepts: a submit rejected by a full queue
// must withdraw its own job, not whichever job was listed last. Concurrent
// result-cache hits are accepted while rejections are being withdrawn;
// every accepted job must stay listed, and Drain must see no job ID without
// a job behind it.
func TestSubmitRejectKeepsConcurrentAccepts(t *testing.T) {
	block := make(chan struct{})
	var exec JobExecutor = func(ctx context.Context, spec JobSpec, _ func(sim.Progress), _ func(plan.Step)) (*JobResult, []StageTimeView, error) {
		if spec.Workload == "block" {
			select {
			case <-block:
			case <-ctx.Done():
			}
		}
		return &JobResult{Workload: spec.Workload, Platform: spec.Platform}, nil, nil
	}
	m := NewJobManager(JobManagerConfig{Workers: 1, QueueDepth: 1, Run: exec})
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// Warm the result cache, then occupy the worker and fill the queue.
	cached := JobSpec{Workload: "cached", Platform: "p"}
	warm, err := m.Submit(cached)
	if err != nil {
		t.Fatal(err)
	}
	waitFor("the cache-warming job", func() bool {
		j, err := m.Get(warm.ID)
		return err == nil && j.State == JobDone
	})
	if _, err := m.Submit(JobSpec{Workload: "block", Platform: "p"}); err != nil {
		t.Fatal(err)
	}
	waitFor("the blocking job to start", func() bool { return m.Running() == 1 })
	if _, err := m.Submit(JobSpec{Workload: "queued", Platform: "p"}); err != nil {
		t.Fatal(err)
	}

	const goroutines, submits = 8, 200
	var (
		mu       sync.Mutex
		accepted = map[string]bool{}
		wg       sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < submits; i++ {
				spec := cached
				if i%2 == 1 {
					spec = JobSpec{Workload: fmt.Sprintf("uncached-%d-%d", g, i), Platform: "p"}
				}
				job, err := m.Submit(spec)
				switch {
				case errors.Is(err, ErrQueueFull):
				case err != nil:
					t.Error(err)
					return
				default:
					mu.Lock()
					accepted[job.ID] = true
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(accepted) == 0 {
		t.Fatal("no submission was accepted")
	}

	listed := map[string]bool{}
	for _, j := range m.List() {
		listed[j.ID] = true
	}
	missing := 0
	for id := range accepted {
		if !listed[id] {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d of %d accepted jobs missing from List", missing, len(accepted))
	}

	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("drain panicked: %v", p)
		}
	}()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
