package serve

import (
	"math"
	"sync"
	"time"
)

// saturation models the job backlog for admission control. The job
// manager feeds it one observation per finished job (the job's wall
// time); when the queue overflows, the 429 Retry-After hint is derived
// from the backlog instead of a constant:
//
//	retryAfter ≈ ceil(queued × meanJobSeconds / capacity)
//
// where capacity is the number of jobs the daemon drains concurrently —
// its local job workers. The estimate is the expected time for the
// backlog to drain one slot, which is exactly how long a client should
// wait before its retry has a fair chance to enter the queue.
//
// Observations live in a fixed ring so the model tracks the current
// workload mix (sweeps and adaptive jobs have very different wall times)
// rather than the all-time mean.
type saturation struct {
	mu    sync.Mutex
	ring  [saturationWindow]float64 // seconds per job
	n     int                       // filled entries, ≤ len(ring)
	next  int                       // ring cursor
	total float64                   // running sum of filled entries
}

// saturationWindow is the observation ring size. 32 jobs is enough to
// smooth single-job variance while still forgetting a stale workload mix
// within minutes under load.
const saturationWindow = 32

// Observe records one finished job's wall time.
func (s *saturation) Observe(d time.Duration) {
	sec := d.Seconds()
	if sec < 0 || math.IsNaN(sec) || math.IsInf(sec, 0) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == len(s.ring) {
		s.total -= s.ring[s.next]
	} else {
		s.n++
	}
	s.ring[s.next] = sec
	s.total += sec
	s.next = (s.next + 1) % len(s.ring)
}

// Observations reports how many samples the window currently holds.
func (s *saturation) Observations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// MeanJobSeconds reports the windowed mean wall time, or 0 with ok=false
// before the first observation.
func (s *saturation) MeanJobSeconds() (mean float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return 0, false
	}
	return s.total / float64(s.n), true
}

// RetryAfter derives the 429 hint for a client rejected with `queued`
// jobs ahead of it and `capacity` concurrent execution slots. Before any
// observation lands it returns fallback (the configured constant); the
// result is clamped to [1s, maxRetryAfter] so a pathological window never
// tells clients to go away for an hour or hammer sub-second.
func (s *saturation) RetryAfter(queued, capacity int, fallback time.Duration) time.Duration {
	mean, ok := s.MeanJobSeconds()
	if !ok {
		if fallback < time.Second {
			fallback = time.Second
		}
		return fallback
	}
	if capacity < 1 {
		capacity = 1
	}
	if queued < 1 {
		queued = 1
	}
	sec := float64(queued) * mean / float64(capacity)
	d := time.Duration(math.Ceil(sec)) * time.Second
	if d < time.Second {
		d = time.Second
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// maxRetryAfter caps the hint; beyond this a client should treat the
// deployment as down rather than politely waiting.
const maxRetryAfter = 5 * time.Minute
