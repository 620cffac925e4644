package graph

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"

	"mosaic/internal/mem"
	"mosaic/internal/trace"
)

func checkCSR(t *testing.T, g *Graph) {
	t.Helper()
	if len(g.Offsets) != g.N+1 {
		t.Fatalf("offsets length %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.Offsets[0] != 0 || int(g.Offsets[g.N]) != len(g.Edges) {
		t.Fatalf("offset bounds wrong: first=%d last=%d edges=%d", g.Offsets[0], g.Offsets[g.N], len(g.Edges))
	}
	for u := 0; u < g.N; u++ {
		if g.Offsets[u] > g.Offsets[u+1] {
			t.Fatalf("offsets not monotone at %d", u)
		}
	}
	for _, v := range g.Edges {
		if int(v) >= g.N {
			t.Fatalf("edge target %d out of range", v)
		}
	}
}

func TestKroneckerShape(t *testing.T) {
	g := GenerateKronecker(10, 8, 1)
	checkCSR(t, g)
	if g.N != 1024 {
		t.Errorf("N = %d, want 1024", g.N)
	}
	if g.M() != 1024*8 {
		t.Errorf("M = %d, want %d", g.M(), 1024*8)
	}
	if g.Weights != nil {
		t.Error("Kronecker graphs are unweighted")
	}
}

func TestPowerLawSkew(t *testing.T) {
	tw := GenerateTwitter(4096, 16, 2)
	checkCSR(t, tw)
	degs := make([]int, tw.N)
	for u := 0; u < tw.N; u++ {
		degs[u] = tw.Degree(uint32(u))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	top := 0
	for _, d := range degs[:tw.N/100] {
		top += d
	}
	// Power-law: the top 1% of vertices should own a large share of edges.
	if float64(top)/float64(tw.M()) < 0.10 {
		t.Errorf("twitter graph not skewed: top 1%% owns %.1f%% of edges",
			100*float64(top)/float64(tw.M()))
	}
	if tw.Weights == nil {
		t.Error("twitter graph should be weighted (SSSP runs on it)")
	}
}

func TestRoadGraphBlockLocality(t *testing.T) {
	// A graph tall enough for several scrambling blocks.
	cols := 16
	rows := 3 * RoadBlockRows
	g := GenerateRoad(rows, cols, 3)
	checkCSR(t, g)
	if g.N != rows*cols {
		t.Fatalf("N = %d", g.N)
	}
	// IDs are scrambled only within blocks: every edge connects nodes in
	// the same or adjacent blocks (real road networks have imperfect but
	// bounded vertex-ordering locality).
	blockLen := RoadBlockRows * cols
	for u := 0; u < g.N; u++ {
		bu := u / blockLen
		for _, v := range g.Neighbors(uint32(u)) {
			bv := int(v) / blockLen
			d := bu - bv
			if d < 0 {
				d = -d
			}
			if d > 1 {
				t.Fatalf("edge %d→%d spans %d blocks", u, v, d)
			}
		}
	}
	// Max degree is bounded (4-connected grid).
	for u := 0; u < g.N; u++ {
		if g.Degree(uint32(u)) > 8 {
			t.Fatalf("road vertex %d has degree %d", u, g.Degree(uint32(u)))
		}
	}
	// Within-block scrambling really happened: a decent share of edges
	// span more than a few rows in ID space.
	far := 0
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			d := int(v) - u
			if d < 0 {
				d = -d
			}
			if d > 8*cols {
				far++
			}
		}
	}
	if float64(far)/float64(g.M()) < 0.5 {
		t.Errorf("scrambling too weak: only %.2f of edges are far", float64(far)/float64(g.M()))
	}
}

func TestWebMoreSkewedThanTwitter(t *testing.T) {
	topShare := func(g *Graph) float64 {
		degs := make([]int, g.N)
		for u := 0; u < g.N; u++ {
			degs[u] = g.Degree(uint32(u))
		}
		sort.Sort(sort.Reverse(sort.IntSlice(degs)))
		top := 0
		for _, d := range degs[:g.N/100] {
			top += d
		}
		return float64(top) / float64(g.M())
	}
	tw := GenerateTwitter(4096, 16, 4)
	wb := GenerateWeb(4096, 16, 4)
	if topShare(wb) <= topShare(tw) {
		t.Errorf("web skew %.3f should exceed twitter skew %.3f", topShare(wb), topShare(tw))
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := GenerateTwitter(1024, 8, 7)
	b := GenerateTwitter(1024, 8, 7)
	if a.M() != b.M() {
		t.Fatal("edge counts differ")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed must generate identical graphs")
		}
	}
}

func testLayout() Layout {
	return Layout{
		Offsets: 0x1000_0000,
		Edges:   0x2000_0000,
		Weights: 0x3000_0000,
		NodeA:   0x4000_0000,
		NodeB:   0x5000_0000,
	}
}

// boundsRecorder checks every recorded access falls inside a known array.
type boundsRecorder struct {
	b   *trace.Builder
	t   *testing.T
	g   *Graph
	lay Layout
}

func (r *boundsRecorder) check(va mem.Addr) {
	l := r.lay
	n, m := mem.Addr(r.g.N), mem.Addr(r.g.M())
	ok := (va >= l.Offsets && va < l.Offsets+(n+1)*idxBytes) ||
		(va >= l.Edges && va < l.Edges+m*idxBytes) ||
		(va >= l.Weights && va < l.Weights+m*idxBytes) ||
		(va >= l.NodeA && va < l.NodeA+n*nodeBytes) ||
		(va >= l.NodeB && va < l.NodeB+n*nodeBytes)
	if !ok {
		r.t.Fatalf("access %#x outside all arrays", uint64(va))
	}
}

func (r *boundsRecorder) Compute(n uint64)     { r.b.Compute(n) }
func (r *boundsRecorder) Load(va mem.Addr)     { r.check(va); r.b.Load(va) }
func (r *boundsRecorder) LoadDep(va mem.Addr)  { r.check(va); r.b.LoadDep(va) }
func (r *boundsRecorder) Store(va mem.Addr)    { r.check(va); r.b.Store(va) }
func (r *boundsRecorder) StoreDep(va mem.Addr) { r.check(va); r.b.StoreDep(va) }

func TestBFSVisitsAndBounds(t *testing.T) {
	g := GenerateTwitter(2048, 8, 5)
	rec := &boundsRecorder{b: trace.NewBuilder("bfs", 1024), t: t, g: g, lay: testLayout()}
	visited := BFS(g, g.LargestComponentSource(), testLayout(), rec, Budget{Max: 1 << 20})
	if visited < g.N/4 {
		t.Errorf("BFS visited only %d of %d", visited, g.N)
	}
	if rec.b.Len() == 0 {
		t.Fatal("no accesses recorded")
	}
}

func TestBFSBudgetRespected(t *testing.T) {
	g := GenerateTwitter(2048, 8, 5)
	b := trace.NewBuilder("bfs", 512)
	BFS(g, g.LargestComponentSource(), testLayout(), b, Budget{Max: 500})
	// The budget may be overshot by at most the few accesses of one edge
	// iteration.
	if b.Len() > 510 {
		t.Errorf("recorded %d accesses for budget 500", b.Len())
	}
}

func TestPageRankBounds(t *testing.T) {
	g := GenerateTwitter(1024, 8, 6)
	rec := &boundsRecorder{b: trace.NewBuilder("pr", 1024), t: t, g: g, lay: testLayout()}
	iters := PageRank(g, testLayout(), rec, 3, Budget{Max: 1 << 20})
	if iters != 3 {
		t.Errorf("completed %d iterations, want 3", iters)
	}
}

func TestSSSPSettles(t *testing.T) {
	g := GenerateTwitter(1024, 8, 7)
	rec := &boundsRecorder{b: trace.NewBuilder("sssp", 1024), t: t, g: g, lay: testLayout()}
	settled := SSSP(g, g.LargestComponentSource(), testLayout(), rec, Budget{Max: 1 << 21})
	if settled < g.N/4 {
		t.Errorf("SSSP settled only %d of %d", settled, g.N)
	}
}

func TestSSSPRequiresWeights(t *testing.T) {
	g := GenerateKronecker(8, 4, 8) // unweighted
	if got := SSSP(g, 0, testLayout(), trace.NewBuilder("s", 1), Budget{Max: 100}); got != 0 {
		t.Errorf("SSSP on unweighted graph = %d, want 0", got)
	}
}

func TestBCReaches(t *testing.T) {
	g := GenerateTwitter(1024, 8, 9)
	rec := &boundsRecorder{b: trace.NewBuilder("bc", 1024), t: t, g: g, lay: testLayout()}
	reached := BC(g, g.LargestComponentSource(), testLayout(), rec, Budget{Max: 1 << 21})
	if reached < g.N/4 {
		t.Errorf("BC reached only %d of %d", reached, g.N)
	}
	if rec.b.Len() == 0 {
		t.Fatal("no accesses recorded")
	}
}

func TestLargestComponentSource(t *testing.T) {
	g := GenerateTwitter(512, 8, 10)
	src := g.LargestComponentSource()
	for u := 0; u < g.N; u++ {
		if g.Degree(uint32(u)) > g.Degree(src) {
			t.Fatalf("source %d (deg %d) is not max-degree", src, g.Degree(src))
		}
	}
}

func TestBudgetSkipFastForwards(t *testing.T) {
	g := GenerateTwitter(2048, 8, 11)
	full := trace.NewBuilder("full", 1024)
	BFS(g, g.LargestComponentSource(), testLayout(), full, Budget{Max: 1 << 20})
	skipped := trace.NewBuilder("skip", 1024)
	BFS(g, g.LargestComponentSource(), testLayout(), skipped, Budget{Skip: 1000, Max: 1 << 20})
	if skipped.Len() != full.Len()-1000 {
		t.Errorf("skip=1000: recorded %d, want %d", skipped.Len(), full.Len()-1000)
	}
	// The first recorded access matches the full trace at offset 1000.
	if skipped.Trace().At(0).VA != full.Trace().At(1000).VA {
		t.Error("fast-forward changed the execution")
	}
}

// digest is an FNV-1a hash over a graph's Offsets, Edges and Weights.
func digest(g *Graph) uint64 {
	h := fnv.New64a()
	_ = binary.Write(h, binary.LittleEndian, g.Offsets)
	_ = binary.Write(h, binary.LittleEndian, g.Edges)
	_ = binary.Write(h, binary.LittleEndian, g.Weights)
	return h.Sum64()
}

// TestGeneratorsPinned pins the generators' output bit for bit: every
// graph workload's trace, and so every dataset and paper table built on
// it, follows from these arrays. A faster generator must reproduce them.
func TestGeneratorsPinned(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want uint64
	}{
		{"kronecker", GenerateKronecker(11, 16, 7), 0x97804dc40dd45558},
		{"twitter", GenerateTwitter(3000, 12, 11), 0xfcf5ef014a9900c5},
		{"web", GenerateWeb(2500, 10, 13), 0xc878da0666e48cf9},
	}
	for _, c := range cases {
		if got := digest(c.g); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
