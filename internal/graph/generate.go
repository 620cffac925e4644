// Package graph provides the graph substrate behind the graph500 and GAPBS
// workloads: synthetic generators approximating the paper's inputs (the
// Kronecker graphs of the Graph500 specification and the twitter / road /
// web graphs of the GAP benchmark suite) plus the traversal kernels
// (BFS, PageRank, SSSP, BC) implemented to emit memory-access traces
// against their simulated data-structure addresses.
package graph

import (
	"math/rand"
	"slices"
)

// Graph is a directed graph in CSR (compressed sparse row) form, the layout
// both Graph500 reference code and GAPBS use. Offsets has N+1 entries;
// the neighbours of u are Edges[Offsets[u]:Offsets[u+1]].
type Graph struct {
	N       int
	Offsets []uint32
	Edges   []uint32
	// Weights parallel Edges (SSSP); nil for unweighted graphs.
	Weights []uint8
}

// M returns the edge count.
func (g *Graph) M() int { return len(g.Edges) }

// Degree returns node u's out-degree.
func (g *Graph) Degree(u uint32) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}

// Neighbors returns node u's adjacency slice.
func (g *Graph) Neighbors(u uint32) []uint32 {
	return g.Edges[g.Offsets[u]:g.Offsets[u+1]]
}

// fromEdgeList builds a CSR graph from an edge list, sorting adjacencies.
func fromEdgeList(n int, src, dst []uint32, weighted bool, rng *rand.Rand) *Graph {
	deg := make([]uint32, n+1)
	for _, u := range src {
		deg[u+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	g := &Graph{N: n, Offsets: deg, Edges: make([]uint32, len(src))}
	cursor := make([]uint32, n)
	for i, u := range src {
		g.Edges[g.Offsets[u]+cursor[u]] = dst[i]
		cursor[u]++
	}
	for u := 0; u < n; u++ {
		adj := g.Edges[g.Offsets[u]:g.Offsets[u+1]]
		slices.Sort(adj)
	}
	if weighted {
		g.Weights = make([]uint8, len(g.Edges))
		for i := range g.Weights {
			g.Weights[i] = uint8(rng.Intn(254) + 1)
		}
	}
	return g
}

// GenerateKronecker produces a Graph500-style Kronecker (RMAT) graph with
// 2^scale vertices and edgeFactor edges per vertex, using the official
// initiator probabilities A=0.57, B=0.19, C=0.19.
func GenerateKronecker(scale, edgeFactor int, seed int64) *Graph {
	return generateRMAT(1<<scale, edgeFactor, 0.57, 0.19, 0.19, seed, false)
}

// GenerateTwitter produces a power-law graph shaped like GAPBS's twitter
// input: heavy-tailed degrees with a small set of very high-degree hubs.
func GenerateTwitter(n, edgeFactor int, seed int64) *Graph {
	return generateRMAT(n, edgeFactor, 0.50, 0.25, 0.15, seed, true)
}

// GenerateWeb produces a hub-dominated graph like GAPBS's web crawl: more
// skew than twitter and long chains between hubs.
func GenerateWeb(n, edgeFactor int, seed int64) *Graph {
	return generateRMAT(n, edgeFactor, 0.62, 0.19, 0.13, seed, true)
}

func generateRMAT(n, edgeFactor int, a, b, c float64, seed int64, weighted bool) *Graph {
	rng := rand.New(rand.NewSource(seed))
	m := n * edgeFactor
	src := make([]uint32, m)
	dst := make([]uint32, m)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	// rng.Float64() is float64(rng.Int63()) / 2^63, redrawn when that
	// rounds to 1. Dividing by a power of two is exact, so comparing the
	// undivided draw against thresholds scaled by 2^63 takes the same
	// branches on the same random stream, without the division. The draw
	// never exceeds 2^63, so >= is the redraw test.
	const scale = 1 << 63
	ta, tab, tabc := a*scale, (a+b)*scale, (a+b+c)*scale
	for i := 0; i < m; i++ {
		var u, v int
		for level := 0; level < bits; level++ {
			r := float64(rng.Int63())
			for r >= scale {
				r = float64(rng.Int63())
			}
			switch {
			case r < ta:
				// upper-left quadrant
			case r < tab:
				v |= 1 << level
			case r < tabc:
				u |= 1 << level
			default:
				u |= 1 << level
				v |= 1 << level
			}
		}
		src[i] = uint32(u % n)
		dst[i] = uint32(v % n)
	}
	return fromEdgeList(n, src, dst, weighted, rng)
}

// GenerateRoad produces a road-network-like graph: a rows×cols grid with
// 4-neighbour connectivity plus a sprinkle of shortcut edges. Node IDs are
// scrambled within blocks of blockRows rows, reflecting the imperfect
// vertex ordering of real road networks: a BFS wave's working set becomes
// a block-sized window rather than a perfectly sequential band. That
// window is what makes gapbs/bfs-road TLB-sensitive only on machines whose
// TLB reach is smaller than the window (§VI-D: sensitive on SandyBridge
// and Haswell, not on Broadwell).
// RoadBlockRows is the ID-scrambling block height of GenerateRoad.
const RoadBlockRows = 1200

func GenerateRoad(rows, cols int, seed int64) *Graph {
	const blockRows = RoadBlockRows
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	// Per-block ID scrambling.
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	blockLen := blockRows * cols
	for base := 0; base < n; base += blockLen {
		end := min(base+blockLen, n)
		for i := end - 1; i > base; i-- {
			j := base + rng.Intn(i-base+1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	var src, dst []uint32
	add := func(u, v int) {
		src = append(src, perm[u])
		dst = append(dst, perm[v])
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := r*cols + c
			if c+1 < cols {
				add(u, u+1)
				add(u+1, u)
			}
			if r+1 < rows {
				add(u, u+cols)
				add(u+cols, u)
			}
		}
	}
	// No long-range shortcuts: road BFS must stay a local wave (real road
	// networks are near-planar; even a few random edges would make the
	// traversal small-world and destroy the locality that distinguishes
	// this workload).
	return fromEdgeList(n, src, dst, true, rng)
}

// LargestComponentSource returns a vertex with non-zero degree that reaches
// a large part of the graph — a reasonable BFS/SSSP source. It picks the
// highest-degree vertex, matching GAPBS's practice of avoiding isolated
// sources.
func (g *Graph) LargestComponentSource() uint32 {
	best, bestDeg := uint32(0), -1
	for u := 0; u < g.N; u++ {
		if d := g.Degree(uint32(u)); d > bestDeg {
			best, bestDeg = uint32(u), d
		}
	}
	return best
}
