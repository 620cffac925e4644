package serve

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestHistogramSumKeepsSubMicroseconds: the _sum series adds durations at
// full resolution, so sub-microsecond parts of many short observations are
// not truncated away.
func TestHistogramSumKeepsSubMicroseconds(t *testing.T) {
	h := NewMetrics().NewHistogram("h_seconds", "test", DefaultLatencyBuckets)
	for i := 0; i < 1000; i++ {
		h.Observe(1500 * time.Nanosecond)
	}
	var buf bytes.Buffer
	h.write(&buf)
	if !strings.Contains(buf.String(), "h_seconds_sum 0.0015\n") {
		t.Errorf("1000 observations of 1.5µs:\n%s", buf.String())
	}
}
