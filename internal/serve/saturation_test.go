package serve

import (
	"testing"
	"time"
)

func TestSaturationFallbackBeforeObservations(t *testing.T) {
	var s saturation
	if got := s.RetryAfter(5, 2, 10*time.Second); got != 10*time.Second {
		t.Fatalf("RetryAfter with empty window = %v, want the 10s fallback", got)
	}
	if _, ok := s.MeanJobSeconds(); ok {
		t.Fatal("MeanJobSeconds reported ok with no observations")
	}
}

func TestSaturationDerivesFromBacklogAndMean(t *testing.T) {
	var s saturation
	for i := 0; i < 4; i++ {
		s.Observe(8 * time.Second)
	}
	// 6 queued × 8s mean ÷ 2 slots = 24s.
	if got := s.RetryAfter(6, 2, time.Minute); got != 24*time.Second {
		t.Fatalf("RetryAfter = %v, want 24s", got)
	}
	// More capacity drains faster: 6 × 8 ÷ 4 = 12s.
	if got := s.RetryAfter(6, 4, time.Minute); got != 12*time.Second {
		t.Fatalf("RetryAfter at capacity 4 = %v, want 12s", got)
	}
}

func TestSaturationWindowForgetsOldMix(t *testing.T) {
	var s saturation
	for i := 0; i < saturationWindow; i++ {
		s.Observe(time.Hour) // stale slow mix
	}
	for i := 0; i < saturationWindow; i++ {
		s.Observe(2 * time.Second) // current fast mix
	}
	mean, ok := s.MeanJobSeconds()
	if !ok || mean != 2 {
		t.Fatalf("windowed mean = %v (ok=%v), want 2s exactly after the ring turns over", mean, ok)
	}
	if got := s.Observations(); got != saturationWindow {
		t.Fatalf("Observations = %d, want %d", got, saturationWindow)
	}
}

func TestSaturationClamps(t *testing.T) {
	var s saturation
	s.Observe(10 * time.Millisecond)
	if got := s.RetryAfter(1, 8, time.Minute); got != time.Second {
		t.Fatalf("tiny estimate = %v, want the 1s floor", got)
	}
	var slow saturation
	slow.Observe(2 * time.Hour)
	if got := slow.RetryAfter(100, 1, time.Minute); got != maxRetryAfter {
		t.Fatalf("huge estimate = %v, want the %v cap", got, maxRetryAfter)
	}
	// Degenerate inputs are normalized, not crashed on.
	if got := s.RetryAfter(0, 0, time.Minute); got < time.Second {
		t.Fatalf("zero backlog/capacity = %v, want ≥ 1s", got)
	}
	s.Observe(-time.Second) // ignored
	if got := s.Observations(); got != 1 {
		t.Fatalf("negative observation was recorded (n=%d)", got)
	}
}
