// Package graph provides the graph substrate for the SOGRE
// reproduction: a CSR-backed undirected graph type, vertex renumbering
// (the graph-reordering materialization of the paper's Figure 1),
// structural statistics, and conversions to and from the bit-matrix
// representation used by the reordering engine.
package graph

import (
	"fmt"
	"sort"

	"repro/internal/bitmat"
)

// Graph is an undirected graph stored as a symmetric CSR adjacency
// structure. Vertex ids are 0-based. Edge weights are optional: a nil
// Weights slice means every edge has weight 1.
type Graph struct {
	n       int
	rowPtr  []int32
	colIdx  []int32
	weights []float32 // parallel to colIdx; nil = unweighted
}

// NewFromEdges builds an undirected graph with n vertices from an edge
// list. Duplicate edges and self-loop duplicates are collapsed. Each
// undirected edge {u, v} is stored in both adjacency lists.
func NewFromEdges(n int, edges [][2]int) (*Graph, error) {
	adj := make([]map[int32]struct{}, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if adj[u] == nil {
			adj[u] = make(map[int32]struct{})
		}
		adj[u][int32(v)] = struct{}{}
		if adj[v] == nil {
			adj[v] = make(map[int32]struct{})
		}
		adj[v][int32(u)] = struct{}{}
	}
	g := &Graph{n: n, rowPtr: make([]int32, n+1)}
	total := 0
	for _, m := range adj {
		total += len(m)
	}
	g.colIdx = make([]int32, 0, total)
	for u := 0; u < n; u++ {
		start := len(g.colIdx)
		for v := range adj[u] {
			g.colIdx = append(g.colIdx, v)
		}
		row := g.colIdx[start:]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		g.rowPtr[u+1] = int32(len(g.colIdx))
	}
	return g, nil
}

// NewFromCSR wraps pre-built CSR arrays. The caller asserts symmetry
// (every directed arc has its reverse) and sorted, duplicate-free rows;
// Validate can verify.
func NewFromCSR(n int, rowPtr, colIdx []int32, weights []float32) (*Graph, error) {
	if len(rowPtr) != n+1 {
		return nil, fmt.Errorf("graph: rowPtr length %d, want %d", len(rowPtr), n+1)
	}
	if int(rowPtr[n]) != len(colIdx) {
		return nil, fmt.Errorf("graph: rowPtr[n]=%d != len(colIdx)=%d", rowPtr[n], len(colIdx))
	}
	if weights != nil && len(weights) != len(colIdx) {
		return nil, fmt.Errorf("graph: weights length %d != colIdx length %d", len(weights), len(colIdx))
	}
	return &Graph{n: n, rowPtr: rowPtr, colIdx: colIdx, weights: weights}, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of stored directed arcs (2x undirected
// edges, with self-loops counted once).
func (g *Graph) NumEdges() int { return len(g.colIdx) }

// NumUndirectedEdges counts undirected edges (self-loops count 1).
func (g *Graph) NumUndirectedEdges() int {
	loops := 0
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) == u {
				loops++
			}
		}
	}
	return (len(g.colIdx)-loops)/2 + loops
}

// Neighbors returns the sorted adjacency list of u (aliases internal
// storage).
func (g *Graph) Neighbors(u int) []int32 {
	return g.colIdx[g.rowPtr[u]:g.rowPtr[u+1]]
}

// EdgeWeights returns the weights parallel to Neighbors(u), or nil if
// the graph is unweighted.
func (g *Graph) EdgeWeights(u int) []float32 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.rowPtr[u]:g.rowPtr[u+1]]
}

// Degree returns the degree of u (counting stored arcs).
func (g *Graph) Degree(u int) int { return int(g.rowPtr[u+1] - g.rowPtr[u]) }

// HasEdge reports whether the arc (u, v) exists, by binary search.
func (g *Graph) HasEdge(u, v int) bool {
	row := g.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	return i < len(row) && row[i] == int32(v)
}

// CSR exposes the raw CSR arrays (aliases internal storage).
func (g *Graph) CSR() (rowPtr, colIdx []int32, weights []float32) {
	return g.rowPtr, g.colIdx, g.weights
}

// Validate checks structural invariants: sorted duplicate-free rows,
// indices in range, and symmetry.
func (g *Graph) Validate() error {
	for u := 0; u < g.n; u++ {
		row := g.Neighbors(u)
		for i, v := range row {
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("graph: vertex %d neighbor %d out of range", u, v)
			}
			if i > 0 && row[i-1] >= v {
				return fmt.Errorf("graph: vertex %d row not strictly sorted at %d", u, i)
			}
			if !g.HasEdge(int(v), u) {
				return fmt.Errorf("graph: asymmetric arc (%d,%d)", u, v)
			}
		}
	}
	return nil
}

// ApplyPermutation renumbers vertices: new vertex i is old vertex
// perm[i]. It returns a new graph whose adjacency matrix equals the
// symmetric permutation of the original. The underlying graph is
// unchanged — only the numbering of vertices differs (paper Figure 1).
func (g *Graph) ApplyPermutation(perm []int) (*Graph, error) {
	if len(perm) != g.n {
		return nil, fmt.Errorf("graph: permutation length %d != n %d", len(perm), g.n)
	}
	inv := make([]int32, g.n)
	seen := make([]bool, g.n)
	for newPos, old := range perm {
		if old < 0 || old >= g.n || seen[old] {
			return nil, fmt.Errorf("graph: invalid permutation entry %d at %d", old, newPos)
		}
		seen[old] = true
		inv[old] = int32(newPos)
	}
	out := &Graph{n: g.n, rowPtr: make([]int32, g.n+1)}
	out.colIdx = make([]int32, len(g.colIdx))
	if g.weights != nil {
		out.weights = make([]float32, len(g.weights))
	}
	pos := 0
	type wv struct {
		v int32
		w float32
	}
	var buf []wv
	for newU := 0; newU < g.n; newU++ {
		old := perm[newU]
		row := g.Neighbors(old)
		ws := g.EdgeWeights(old)
		buf = buf[:0]
		for i, v := range row {
			e := wv{v: inv[v]}
			if ws != nil {
				e.w = ws[i]
			}
			buf = append(buf, e)
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i].v < buf[j].v })
		for _, e := range buf {
			out.colIdx[pos] = e.v
			if out.weights != nil {
				out.weights[pos] = e.w
			}
			pos++
		}
		out.rowPtr[newU+1] = int32(pos)
	}
	return out, nil
}

// ToBitMatrix converts the adjacency structure to the dense bit matrix
// used by the reordering engine.
func (g *Graph) ToBitMatrix() *bitmat.Matrix {
	m := bitmat.New(g.n)
	bitmat.ParallelRows(g.n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for _, v := range g.Neighbors(u) {
				m.Set(u, int(v))
			}
		}
	})
	return m
}

// FromBitMatrix builds a graph from a symmetric bit matrix.
func FromBitMatrix(m *bitmat.Matrix) *Graph {
	n := m.N()
	g := &Graph{n: n, rowPtr: make([]int32, n+1)}
	counts := make([]int, n)
	bitmat.ParallelRows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[i] = m.RowNNZ(i)
		}
	})
	total := 0
	for i, c := range counts {
		total += c
		g.rowPtr[i+1] = int32(total)
	}
	g.colIdx = make([]int32, total)
	bitmat.ParallelRows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.AppendRow(g.colIdx[g.rowPtr[i]:g.rowPtr[i]], i)
		}
	})
	return g
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n}
	c.rowPtr = append([]int32(nil), g.rowPtr...)
	c.colIdx = append([]int32(nil), g.colIdx...)
	if g.weights != nil {
		c.weights = append([]float32(nil), g.weights...)
	}
	return c
}

// Subgraph returns the induced subgraph on the given vertices (which
// become vertices 0..len(vertices)-1 in order) plus the mapping back to
// original ids.
func (g *Graph) Subgraph(vertices []int) (*Graph, []int) {
	idx := make(map[int]int32, len(vertices))
	for i, v := range vertices {
		idx[v] = int32(i)
	}
	sub := &Graph{n: len(vertices), rowPtr: make([]int32, len(vertices)+1)}
	for i, v := range vertices {
		for _, w := range g.Neighbors(v) {
			if _, ok := idx[int(w)]; ok {
				sub.colIdx = append(sub.colIdx, idx[int(w)])
			}
		}
		row := sub.colIdx[sub.rowPtr[i]:]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		sub.rowPtr[i+1] = int32(len(sub.colIdx))
	}
	orig := append([]int(nil), vertices...)
	return sub, orig
}
