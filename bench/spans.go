package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer: its name, its
// interval since the recorder started, and the span that caused it. Spans
// of one iteration or request share a Trace identifier.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"` // 0: a root span
	Name   string        `json:"name"`
	Trace  string        `json:"trace,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced runs pay one nil check per call site.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewRecorder starts an empty recorder; span times count from now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Begin(name, trace string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Trace: trace, Start: now, End: now})
	return len(r.spans)
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// Record adds a span whose interval was observed rather than bracketed.
func (r *Recorder) Record(name, trace string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Trace: trace,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
}

// Spans returns a copy of the recorded spans in ID order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, index-aligned with spans, each span's duration minus
// the part of its interval that its direct children cover. Overlapping
// children count once, and a child reaching outside its parent counts only
// inside it.
func SelfTimes(spans []Span) []time.Duration {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make([][][2]time.Duration, len(spans))
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(children[i], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the intervals clipped to [lo, hi).
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// LayerTime is the self time and span count of every span with one name.
type LayerTime struct {
	Name  string        `json:"name"`
	Self  time.Duration `json:"self_ns"`
	Count int           `json:"count"`
}

// LayerTimes sums self time per span name, sorted by name.
func LayerTimes(spans []Span) []LayerTime {
	self := SelfTimes(spans)
	idx := make(map[string]int)
	var out []LayerTime
	for i, s := range spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, LayerTime{Name: s.Name})
		}
		out[k].Self += self[i]
		out[k].Count++
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// selfOf returns the summed self time of the spans named name.
func selfOf(layers []LayerTime, name string) time.Duration {
	for _, l := range layers {
		if l.Name == name {
			return l.Self
		}
	}
	return 0
}

// Save writes the spans and their per-name self times to path as JSON.
func (r *Recorder) Save(path string) error {
	spans := r.Spans()
	raw, err := json.Marshal(struct {
		Spans  []Span      `json:"spans"`
		Layers []LayerTime `json:"layers"`
	}{spans, LayerTimes(spans)})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
