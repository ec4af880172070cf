// Package graphalgs implements the symmetry-dependent graph algorithms
// the paper cites as the reason graph reordering must preserve
// adjacency symmetry (Sections 1 and 6): Kruskal's minimum spanning
// tree, spectral partitioning, and isomorphism verification under
// vertex renumbering. They all operate directly on the (symmetric)
// adjacency structure, so a SOGRE-reordered graph runs them unchanged,
// while a column-only (Jigsaw-style) matrix reordering produces an
// asymmetric matrix that is no longer a valid undirected adjacency.
package graphalgs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// unionFind is a weighted quick-union structure with path compression.
type unionFind struct {
	parent []int32
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (uf *unionFind) find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int32) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return true
}

// MSTEdge is one edge of a spanning forest.
type MSTEdge struct {
	U, V   int
	Weight float64
}

// Kruskal computes a minimum spanning forest of the graph using the
// given edge-weight function (nil means unit weights, yielding an
// arbitrary spanning forest). Requires the symmetric adjacency
// structure: each undirected edge is taken once from the u < v side.
func Kruskal(g *graph.Graph, weight func(u, v int) float64) ([]MSTEdge, float64) {
	var edges []MSTEdge
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) <= u {
				continue
			}
			w := 1.0
			if weight != nil {
				w = weight(u, int(v))
			}
			edges = append(edges, MSTEdge{U: u, V: int(v), Weight: w})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].Weight != edges[b].Weight {
			return edges[a].Weight < edges[b].Weight
		}
		if edges[a].U != edges[b].U {
			return edges[a].U < edges[b].U
		}
		return edges[a].V < edges[b].V
	})
	uf := newUnionFind(g.N())
	var mst []MSTEdge
	var total float64
	for _, e := range edges {
		if uf.union(int32(e.U), int32(e.V)) {
			mst = append(mst, e)
			total += e.Weight
		}
	}
	return mst, total
}

// SpectralBisection partitions the graph into two halves using the
// Fiedler vector of the graph Laplacian L = D - A, estimated by
// deflated power iteration. The method's correctness depends on L
// being symmetric — exactly the property SOGRE preserves and column
// reordering destroys. Returns a side label (0/1) per vertex.
func SpectralBisection(g *graph.Graph, iters int, seed int64) []int {
	n := g.N()
	if iters <= 0 {
		iters = 200
	}
	deg := make([]float64, n)
	maxDeg := 0.0
	for u := 0; u < n; u++ {
		deg[u] = float64(g.Degree(u))
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	// Power iteration on M = (2*maxDeg) I - L, whose dominant
	// eigenvectors are L's smallest. Deflate the constant vector (L's
	// kernel) to land on the Fiedler vector.
	shift := 2*maxDeg + 1
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, n)
	for it := 0; it < iters; it++ {
		// Deflate: remove mean.
		var mean float64
		for _, v := range x {
			mean += v
		}
		mean /= float64(n)
		for i := range x {
			x[i] -= mean
		}
		// y = (shift I - L) x = shift x - deg.x + A x.
		for i := range y {
			y[i] = (shift - deg[i]) * x[i]
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				y[u] += x[v]
			}
		}
		// Normalize.
		var norm float64
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			break
		}
		for i := range y {
			x[i] = y[i] / norm
		}
	}
	side := make([]int, n)
	for i, v := range x {
		if v >= 0 {
			side[i] = 1
		}
	}
	return side
}

// CutSize counts edges crossing a 2-way partition.
func CutSize(g *graph.Graph, side []int) int {
	cut := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u && side[u] != side[v] {
				cut++
			}
		}
	}
	return cut
}

// VerifyIsomorphism checks that perm is a graph isomorphism from g to
// h: edge (u, v) in g iff (perm⁻¹ applied) edge in h, where h's vertex
// i corresponds to g's vertex perm[i] — the relationship a SOGRE
// reordering guarantees by construction.
func VerifyIsomorphism(g, h *graph.Graph, perm []int) error {
	if g.N() != h.N() || len(perm) != g.N() {
		return fmt.Errorf("graphalgs: size mismatch")
	}
	inv := make([]int, g.N())
	seen := make([]bool, g.N())
	for newPos, old := range perm {
		if old < 0 || old >= g.N() || seen[old] {
			return fmt.Errorf("graphalgs: invalid permutation at %d", newPos)
		}
		seen[old] = true
		inv[old] = newPos
	}
	if g.NumEdges() != h.NumEdges() {
		return fmt.Errorf("graphalgs: edge counts differ: %d vs %d", g.NumEdges(), h.NumEdges())
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if !h.HasEdge(inv[u], inv[v]) {
				return fmt.Errorf("graphalgs: edge (%d,%d) has no image", u, v)
			}
		}
	}
	return nil
}

// WeisfeilerLehmanHash computes a 1-WL color-refinement fingerprint of
// the graph, invariant under vertex renumbering — a quick isomorphism
// witness for tests: reordered graphs must hash identically.
func WeisfeilerLehmanHash(g *graph.Graph, rounds int) uint64 {
	if rounds <= 0 {
		rounds = 3
	}
	n := g.N()
	colors := make([]uint64, n)
	for u := 0; u < n; u++ {
		colors[u] = uint64(g.Degree(u)) + 1
	}
	next := make([]uint64, n)
	for r := 0; r < rounds; r++ {
		for u := 0; u < n; u++ {
			sig := make([]uint64, 0, g.Degree(u))
			for _, v := range g.Neighbors(u) {
				sig = append(sig, colors[v])
			}
			sort.Slice(sig, func(a, b int) bool { return sig[a] < sig[b] })
			h := colors[u]*1099511628211 + 14695981039346656037
			for _, s := range sig {
				h = (h ^ s) * 1099511628211
			}
			next[u] = h
		}
		colors, next = next, colors
	}
	// Order-independent combination.
	sorted := append([]uint64(nil), colors...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	var out uint64 = 14695981039346656037
	for _, c := range sorted {
		out = (out ^ c) * 1099511628211
	}
	return out
}
