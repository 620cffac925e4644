// Package registry keeps trained runtime models ready to serve. It is the
// bridge between the measurement pipeline and the prediction API: a sweep
// produces an experiment.Dataset, Train fits the requested models on it
// and persists their coefficients as JSON, and Predict evaluates a stored
// model in microseconds — the paper's point that a fitted Mosmodel
// replaces hours of simulation with a cheap, bounded-error function
// (§VII-C, ≤3% max error).
//
// Persistence is one JSON file per (workload, platform) pair holding the
// training samples (so layout names remain predictable inputs) and every
// fitted model's serialized state. Files are written atomically and
// hot-reloaded: a daemon notices externally retrained files by a (size,
// mtime) stamp backed by a content hash for the racy same-second cases,
// without a restart.
package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mosaic/internal/binfmt"
	"mosaic/internal/experiment"
	"mosaic/internal/models"
	"mosaic/internal/pmu"
)

// Lookup errors, distinguished so the HTTP layer can map them to 404s.
var (
	ErrUnknownPair   = errors.New("registry: no trained models for workload@platform")
	ErrUnknownModel  = errors.New("registry: model not trained for this pair")
	ErrUnknownLayout = errors.New("registry: layout not in the pair's training protocol")
)

// fileVersion tags the on-disk schema.
const fileVersion = 1

// modelRecord is one fitted model's on-disk form.
type modelRecord struct {
	MaxTrainErr float64         `json:"maxTrainErr"`
	GeoTrainErr float64         `json:"geoTrainErr"`
	State       json.RawMessage `json:"state"`
}

// pairFile is the on-disk form of one (workload, platform) pair.
type pairFile struct {
	Version      int                    `json:"version"`
	Workload     string                 `json:"workload"`
	Platform     string                 `json:"platform"`
	TLBSensitive bool                   `json:"tlbSensitive"`
	Samples      []pmu.Sample           `json:"samples"`
	Sample1G     pmu.Sample             `json:"sample1G"`
	Models       map[string]modelRecord `json:"models"`
}

// Pair is the in-memory form: the pair's training samples plus its fitted
// models.
type Pair struct {
	Workload, Platform string
	TLBSensitive       bool
	Samples            []pmu.Sample
	Sample1G           pmu.Sample
	Models             map[string]*experiment.TrainedModel
}

// key names a pair the way the API addresses it.
func key(workload, platform string) string { return workload + "@" + platform }

// fileStamp detects externally changed files. (size, mtime) is the cheap
// stat-only check, but it is racy: a rewrite in the same second that lands
// on the same byte count — exactly what a trainer pushing a retrained
// model with identical shape can produce — leaves both unchanged. So the
// stamp also records a content hash plus when the stamp was taken: when
// the mtime is too close to the stamp time to be conclusive (the git
// "racy stamp" condition), Reload re-reads the file and trusts the hash
// instead.
type fileStamp struct {
	size  int64
	mtime time.Time
	hash  uint64    // FNV-1a of the file bytes
	at    time.Time // when the stamp was recorded
}

// racy reports whether (size, mtime) equality is inconclusive: the file's
// mtime is within filesystem timestamp granularity of the stamp time, so
// a later same-second rewrite would be invisible to stat.
func (s fileStamp) racy() bool {
	return s.at.Sub(s.mtime) < time.Second
}

// sameContent reports whether two stamps certify identical file content.
func sameContent(a, b fileStamp) bool {
	return a.size == b.size && a.hash == b.hash
}

// Registry is the thread-safe store. Predictions take a read lock;
// training and reloading take the write lock.
type Registry struct {
	dir string // "" means in-memory only (no persistence, no reload)

	mu      sync.RWMutex
	pairs   map[string]*Pair     // key() → pair
	stamps  map[string]fileStamp // file path → last loaded stamp
	files   map[string]string    // key() → file path
	reloads uint64               // completed Reload passes that changed state
}

// Open builds a registry over dir, loading every pair file already there.
// An empty dir gives an in-memory registry (nothing persists). The
// directory is created if missing.
func Open(dir string) (*Registry, error) {
	r := &Registry{
		dir:    dir,
		pairs:  make(map[string]*Pair),
		stamps: make(map[string]fileStamp),
		files:  make(map[string]string),
	}
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Dir returns the persistence directory ("" for in-memory).
func (r *Registry) Dir() string { return r.dir }

// pairPath names the pair's file: sanitized for the filesystem and
// disambiguated with an FNV hash, mirroring the trace cache's convention.
func (r *Registry) pairPath(workload, platform string) string {
	k := key(workload, platform)
	safe := strings.NewReplacer("/", "_", " ", "_", "@", "_").Replace(k)
	return filepath.Join(r.dir, fmt.Sprintf("%s-%08x.json", safe, uint32(binfmt.FNV1a(k))))
}

// Train fits the named models (nil/empty = every registry model) on the
// dataset's samples, installs them for serving, and — when the registry is
// disk-backed — persists the pair atomically. Models that cannot be fitted
// on this dataset (e.g. prior models lacking baseline anchors on a partial
// dataset) are skipped; Train fails only when no model trains at all.
func (r *Registry) Train(ds *experiment.Dataset, names []string) error {
	trained, _, err := ds.TrainModels(names)
	if err != nil {
		return err
	}
	pair := &Pair{
		Workload:     ds.Workload,
		Platform:     ds.Platform,
		TLBSensitive: ds.TLBSensitive,
		Samples:      append([]pmu.Sample{}, ds.Samples...),
		Sample1G:     ds.Sample1G,
		Models:       trained,
	}

	// Phase 1 (locked): merge with previously trained models for the same
	// pair — so training "mosmodel" after "poly1" serves both — and install.
	// An installed Pair is never mutated again (later Trains build a fresh
	// one and merge into it), so it is safe to serialize without the lock.
	r.mu.Lock()
	if prev, ok := r.pairs[key(pair.Workload, pair.Platform)]; ok {
		for name, tm := range prev.Models {
			if _, ok := pair.Models[name]; !ok {
				pair.Models[name] = tm
			}
		}
	}
	r.pairs[key(pair.Workload, pair.Platform)] = pair
	dir := r.dir
	r.mu.Unlock()
	if dir == "" {
		return nil
	}

	// Phase 2 (unlocked): marshal and write the pair file. Serving requests
	// proceed against the already-installed pair while the disk write runs.
	path, raw, err := r.persist(pair)
	if err != nil {
		return err
	}

	fi, statErr := os.Stat(path)

	// Phase 3 (locked): record the freshly written file's stamp so Reload
	// recognizes it as our own write rather than an external edit.
	r.mu.Lock()
	defer r.mu.Unlock()
	if statErr == nil {
		r.stamps[path] = fileStamp{
			size:  fi.Size(),
			mtime: fi.ModTime(),
			hash:  binfmt.FNV1a(raw),
			at:    time.Now(),
		}
		r.files[key(pair.Workload, pair.Platform)] = path
	}
	return nil
}

// persist writes one pair's file atomically and returns its path and raw
// bytes for stamping. It must be called without the registry lock held —
// it performs file I/O.
func (r *Registry) persist(pair *Pair) (string, []byte, error) {
	pf := pairFile{
		Version:      fileVersion,
		Workload:     pair.Workload,
		Platform:     pair.Platform,
		TLBSensitive: pair.TLBSensitive,
		Samples:      pair.Samples,
		Sample1G:     pair.Sample1G,
		Models:       make(map[string]modelRecord, len(pair.Models)),
	}
	for name, tm := range pair.Models {
		state, err := json.Marshal(tm.Model)
		if err != nil {
			return "", nil, fmt.Errorf("registry: serializing %s for %s: %w", name, key(pair.Workload, pair.Platform), err)
		}
		pf.Models[name] = modelRecord{
			MaxTrainErr: tm.MaxTrainErr,
			GeoTrainErr: tm.GeoTrainErr,
			State:       state,
		}
	}
	raw, err := json.MarshalIndent(&pf, "", "  ")
	if err != nil {
		return "", nil, err
	}
	path := r.pairPath(pair.Workload, pair.Platform)
	err = binfmt.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
	if err != nil {
		return "", nil, err
	}
	return path, raw, nil
}

// parsePair parses one pair file's bytes into its in-memory form.
func parsePair(path string, raw []byte) (*Pair, error) {
	var pf pairFile
	if err := json.Unmarshal(raw, &pf); err != nil {
		return nil, fmt.Errorf("registry: %s: %w", path, err)
	}
	if pf.Version != fileVersion {
		return nil, fmt.Errorf("registry: %s: unsupported version %d", path, pf.Version)
	}
	if pf.Workload == "" || pf.Platform == "" {
		return nil, fmt.Errorf("registry: %s: missing workload/platform", path)
	}
	pair := &Pair{
		Workload:     pf.Workload,
		Platform:     pf.Platform,
		TLBSensitive: pf.TLBSensitive,
		Samples:      pf.Samples,
		Sample1G:     pf.Sample1G,
		Models:       make(map[string]*experiment.TrainedModel, len(pf.Models)),
	}
	for name, rec := range pf.Models {
		m, err := models.Restore(name, rec.State)
		if err != nil {
			return nil, fmt.Errorf("registry: %s: %w", path, err)
		}
		pair.Models[name] = &experiment.TrainedModel{
			Model:       m,
			MaxTrainErr: rec.MaxTrainErr,
			GeoTrainErr: rec.GeoTrainErr,
		}
	}
	return pair, nil
}

// Reload re-scans the directory, loading new or changed pair files and
// dropping pairs whose files vanished. It returns the number of pairs
// whose state changed. A file that fails to parse is skipped (the previous
// in-memory state, if any, keeps serving) and reported.
func (r *Registry) Reload() (int, error) {
	if r.dir == "" {
		return 0, nil
	}
	paths, err := filepath.Glob(filepath.Join(r.dir, "*.json"))
	if err != nil {
		return 0, err
	}
	// Phase 1 — read the disk with no lock held. Stat/parse/restore of a
	// large pair file must not stall predict traffic behind the registry
	// write lock, so loads are staged against a snapshot of the stamps and
	// applied in phase 2.
	r.mu.RLock()
	prevStamps := make(map[string]fileStamp, len(r.stamps))
	for p, s := range r.stamps {
		prevStamps[p] = s
	}
	r.mu.RUnlock()

	type staged struct {
		path  string
		stamp fileStamp
		pair  *Pair // nil: stamp refresh only, content verified unchanged
	}
	var loads []staged
	var firstErr error
	seen := make(map[string]bool, len(paths))
	for _, path := range paths {
		seen[path] = true
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		stamp := fileStamp{size: fi.Size(), mtime: fi.ModTime()}
		prev, known := prevStamps[path]
		if known && prev.size == stamp.size && prev.mtime.Equal(stamp.mtime) && !prev.racy() {
			continue // stat-only fast path: the stamp is conclusive
		}
		// New file, changed stat, or a racy stamp — read and let the
		// content hash decide.
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		stamp.hash = binfmt.FNV1a(raw)
		stamp.at = time.Now()
		if known && sameContent(prev, stamp) {
			// Identical bytes: refresh the stamp (so a now-settled mtime
			// takes the fast path next pass) without reparsing.
			loads = append(loads, staged{path: path, stamp: stamp})
			continue
		}
		pair, err := parsePair(path, raw)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		loads = append(loads, staged{path: path, stamp: stamp, pair: pair})
	}

	// Phase 2 — apply under the write lock: pure map updates, no I/O. A
	// concurrent Reload may have applied the same file meanwhile; the
	// hash re-check keeps the changed count honest.
	r.mu.Lock()
	defer r.mu.Unlock()
	changed := 0
	for _, s := range loads {
		if s.pair == nil {
			if _, ok := r.stamps[s.path]; ok {
				r.stamps[s.path] = s.stamp
			}
			continue
		}
		if prev, ok := r.stamps[s.path]; ok && sameContent(prev, s.stamp) {
			continue
		}
		r.pairs[key(s.pair.Workload, s.pair.Platform)] = s.pair
		r.stamps[s.path] = s.stamp
		r.files[key(s.pair.Workload, s.pair.Platform)] = s.path
		changed++
	}
	for k, path := range r.files {
		if !seen[path] {
			delete(r.pairs, k)
			delete(r.stamps, path)
			delete(r.files, k)
			changed++
		}
	}
	if changed > 0 {
		r.reloads++
	}
	return changed, firstErr
}

// Watch polls Reload every interval until ctx is done — the hot-reload
// loop a daemon runs so retrained files go live without a restart.
func (r *Registry) Watch(ctx context.Context, interval time.Duration) {
	if r.dir == "" || interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.Reload() // a failed reload keeps serving the previous state
		}
	}
}

// Generations reports how many Reload passes changed state (for tests and
// metrics).
func (r *Registry) Generations() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.reloads
}

// Prediction is one served prediction with its error bounds: the training
// maximal relative error brackets the runtime estimate, mirroring how the
// paper reports model quality.
type Prediction struct {
	Workload string  `json:"workload"`
	Platform string  `json:"platform"`
	Model    string  `json:"model"`
	Layout   string  `json:"layout,omitempty"`
	H        float64 `json:"h"`
	M        float64 `json:"m"`
	C        float64 `json:"c"`
	Runtime  float64 `json:"runtime"`
	// Lo/Hi bracket Runtime by the training maximal relative error.
	Lo          float64 `json:"lo"`
	Hi          float64 `json:"hi"`
	MaxTrainErr float64 `json:"maxTrainErr"`
	GeoTrainErr float64 `json:"geoTrainErr"`
}

// Request addresses one prediction: a pair, a model (empty = mosmodel),
// and either explicit (H, M, C) inputs or a training-layout name.
type Request struct {
	Workload, Platform, Model string
	// Layout, when non-empty, resolves (H, M, C) from the pair's stored
	// training sample of that name (including "1GB").
	Layout  string
	H, M, C float64
}

// DefaultModel is served when a request names none.
const DefaultModel = "mosmodel"

// Predict evaluates one request under a read lock.
func (r *Registry) Predict(req Request) (Prediction, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.predictLocked(req)
}

// predictLocked evaluates one request; callers hold (at least) the read
// lock.
func (r *Registry) predictLocked(req Request) (Prediction, error) {
	pair, ok := r.pairs[key(req.Workload, req.Platform)]
	if !ok {
		return Prediction{}, fmt.Errorf("%w: %s", ErrUnknownPair, key(req.Workload, req.Platform))
	}
	name := req.Model
	if name == "" {
		name = DefaultModel
	}
	tm, ok := pair.Models[name]
	if !ok {
		return Prediction{}, fmt.Errorf("%w: %s for %s", ErrUnknownModel, name, key(req.Workload, req.Platform))
	}
	h, m, c := req.H, req.M, req.C
	if req.Layout != "" {
		s, ok := pair.sample(req.Layout)
		if !ok {
			return Prediction{}, fmt.Errorf("%w: %q for %s", ErrUnknownLayout, req.Layout, key(req.Workload, req.Platform))
		}
		h, m, c = s.H, s.M, s.C
	}
	rt := tm.Model.Predict(h, m, c)
	return Prediction{
		Workload: pair.Workload, Platform: pair.Platform, Model: name,
		Layout: req.Layout, H: h, M: m, C: c,
		Runtime:     rt,
		Lo:          rt * (1 - tm.MaxTrainErr),
		Hi:          rt * (1 + tm.MaxTrainErr),
		MaxTrainErr: tm.MaxTrainErr,
		GeoTrainErr: tm.GeoTrainErr,
	}, nil
}

// sample resolves a layout name to its training sample.
func (p *Pair) sample(layout string) (pmu.Sample, bool) {
	for _, s := range p.Samples {
		if s.Layout == layout {
			return s, true
		}
	}
	if p.Sample1G.Layout == layout {
		return p.Sample1G, true
	}
	return pmu.Sample{}, false
}

// PairInfo summarizes one stored pair for the listing endpoint.
type PairInfo struct {
	Workload     string             `json:"workload"`
	Platform     string             `json:"platform"`
	TLBSensitive bool               `json:"tlbSensitive"`
	Samples      int                `json:"samples"`
	Layouts      []string           `json:"layouts"`
	Models       map[string]float64 `json:"models"` // name → max training error
}

// Pairs lists every stored pair, sorted by key, for /v1/models.
func (r *Registry) Pairs() []PairInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]PairInfo, 0, len(r.pairs))
	for _, p := range r.pairs {
		info := PairInfo{
			Workload:     p.Workload,
			Platform:     p.Platform,
			TLBSensitive: p.TLBSensitive,
			Samples:      len(p.Samples),
			Models:       make(map[string]float64, len(p.Models)),
		}
		for _, s := range p.Samples {
			info.Layouts = append(info.Layouts, s.Layout)
		}
		if p.Sample1G.Layout != "" {
			info.Layouts = append(info.Layouts, p.Sample1G.Layout)
		}
		for name, tm := range p.Models {
			info.Models[name] = tm.MaxTrainErr
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		return key(out[i].Workload, out[i].Platform) < key(out[j].Workload, out[j].Platform)
	})
	return out
}

// Len reports the stored pair count (a metrics gauge).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.pairs)
}
