// Package csr provides the weighted Compressed Sparse Row matrix used
// by the SpMM kernels and GNN aggregation — the format cuSPARSE's
// CSR-SpMM baseline (and PyG/DGL's default backends) operate on.
package csr

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bitmat"
	"repro/internal/dense"
	"repro/internal/graph"
)

// Matrix is a square sparse matrix in CSR form with float32 values.
type Matrix struct {
	N      int
	RowPtr []int32
	ColIdx []int32
	Val    []float32
}

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int { return len(m.ColIdx) }

// RowNNZ returns the number of stored nonzeros in row i — the per-row
// work estimate the tile scheduler's degree-aware partitioner balances.
func (m *Matrix) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// Row returns the column indices and values of row i (aliases storage).
func (m *Matrix) Row(i int) ([]int32, []float32) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns element (i, j), 0 if absent.
func (m *Matrix) At(i, j int) float32 {
	cols, vals := m.Row(i)
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return vals[k]
	}
	return 0
}

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{
		N:      m.N,
		RowPtr: append([]int32(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    append([]float32(nil), m.Val...),
	}
}

// Compact returns a copy of the matrix whose three flat arrays are
// freshly allocated at exact length (no growth slack from incremental
// construction) — the arena-style layout the execution planner's
// Prepare step hands the kernels, so the sparse-metadata walks of a
// planned dispatch touch densely packed storage.
func (m *Matrix) Compact() *Matrix {
	c := &Matrix{
		N:      m.N,
		RowPtr: make([]int32, len(m.RowPtr)),
		ColIdx: make([]int32, len(m.ColIdx)),
		Val:    make([]float32, len(m.Val)),
	}
	copy(c.RowPtr, m.RowPtr)
	copy(c.ColIdx, m.ColIdx)
	copy(c.Val, m.Val)
	return c
}

// FromEntries builds a CSR matrix from (row, col, val) triplets.
// Duplicate entries are summed.
func FromEntries(n int, rows, cols []int32, vals []float32) (*Matrix, error) {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, fmt.Errorf("csr: triplet arrays disagree: %d %d %d", len(rows), len(cols), len(vals))
	}
	type ent struct {
		c int32
		v float32
	}
	adj := make([][]ent, n)
	for k := range rows {
		r, c := rows[k], cols[k]
		if r < 0 || int(r) >= n || c < 0 || int(c) >= n {
			return nil, fmt.Errorf("csr: entry (%d,%d) out of range", r, c)
		}
		adj[r] = append(adj[r], ent{c, vals[k]})
	}
	m := &Matrix{N: n, RowPtr: make([]int32, n+1)}
	for r := 0; r < n; r++ {
		sort.Slice(adj[r], func(i, j int) bool { return adj[r][i].c < adj[r][j].c })
		var lastCol int32 = -1
		for _, e := range adj[r] {
			if e.c == lastCol {
				m.Val[len(m.Val)-1] += e.v
				continue
			}
			m.ColIdx = append(m.ColIdx, e.c)
			m.Val = append(m.Val, e.v)
			lastCol = e.c
		}
		m.RowPtr[r+1] = int32(len(m.ColIdx))
	}
	return m, nil
}

// FromGraph converts a graph's adjacency structure to CSR. Unweighted
// edges become 1.0.
func FromGraph(g *graph.Graph) *Matrix {
	rowPtr, colIdx, weights := g.CSR()
	m := &Matrix{
		N:      g.N(),
		RowPtr: append([]int32(nil), rowPtr...),
		ColIdx: append([]int32(nil), colIdx...),
	}
	if weights != nil {
		m.Val = append([]float32(nil), weights...)
	} else {
		m.Val = make([]float32, len(colIdx))
		for i := range m.Val {
			m.Val[i] = 1
		}
	}
	return m
}

// FromBitMatrix converts a binary matrix to CSR with unit values.
func FromBitMatrix(b *bitmat.Matrix) *Matrix {
	n := b.N()
	m := &Matrix{N: n, RowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = m.RowPtr[i] + int32(b.RowNNZ(i))
	}
	m.ColIdx = make([]int32, m.RowPtr[n])
	m.Val = make([]float32, m.RowPtr[n])
	for i := 0; i < n; i++ {
		b.AppendRow(m.ColIdx[m.RowPtr[i]:m.RowPtr[i]], i)
	}
	for k := range m.Val {
		m.Val[k] = 1
	}
	return m
}

// ToBitMatrix returns the sparsity structure as a bit matrix.
func (m *Matrix) ToBitMatrix() *bitmat.Matrix {
	b := bitmat.New(m.N)
	for i := 0; i < m.N; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			b.Set(i, int(c))
		}
	}
	return b
}

// ToDense expands to a dense matrix (for small-scale validation).
func (m *Matrix) ToDense() *dense.Matrix {
	d := dense.NewMatrix(m.N, m.N)
	for i := 0; i < m.N; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			d.Set(i, int(c), vals[k])
		}
	}
	return d
}

// Permute returns P A Pᵀ for the vertex renumbering perm (new position
// i holds original vertex perm[i]) — the weighted counterpart of
// bitmat.Matrix.Permute.
func (m *Matrix) Permute(perm []int) (*Matrix, error) {
	if len(perm) != m.N {
		return nil, fmt.Errorf("csr: permutation length %d != n %d", len(perm), m.N)
	}
	inv := make([]int32, m.N)
	for newPos, old := range perm {
		inv[old] = int32(newPos)
	}
	out := &Matrix{N: m.N, RowPtr: make([]int32, m.N+1)}
	out.ColIdx = make([]int32, 0, len(m.ColIdx))
	out.Val = make([]float32, 0, len(m.Val))
	type ent struct {
		c int32
		v float32
	}
	var buf []ent
	for newI := 0; newI < m.N; newI++ {
		cols, vals := m.Row(perm[newI])
		buf = buf[:0]
		for k, c := range cols {
			buf = append(buf, ent{inv[c], vals[k]})
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i].c < buf[j].c })
		for _, e := range buf {
			out.ColIdx = append(out.ColIdx, e.c)
			out.Val = append(out.Val, e.v)
		}
		out.RowPtr[newI+1] = int32(len(out.ColIdx))
	}
	return out, nil
}

// Transpose returns Aᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := &Matrix{N: m.N, RowPtr: make([]int32, m.N+1)}
	counts := make([]int32, m.N)
	for _, c := range m.ColIdx {
		counts[c]++
	}
	for i := 0; i < m.N; i++ {
		out.RowPtr[i+1] = out.RowPtr[i] + counts[i]
	}
	out.ColIdx = make([]int32, len(m.ColIdx))
	out.Val = make([]float32, len(m.Val))
	pos := append([]int32(nil), out.RowPtr[:m.N]...)
	for r := 0; r < m.N; r++ {
		cols, vals := m.Row(r)
		for k, c := range cols {
			p := pos[c]
			out.ColIdx[p] = int32(r)
			out.Val[p] = vals[k]
			pos[c]++
		}
	}
	return out
}

// SymNormalized returns D^{-1/2} (A + I) D^{-1/2}, the GCN-style
// symmetric normalization with self-loops, where D is the degree matrix
// of A + I.
func SymNormalized(g *graph.Graph) *Matrix {
	n := g.N()
	deg := make([]float64, n)
	for u := 0; u < n; u++ {
		deg[u] = float64(g.Degree(u))
		if !g.HasEdge(u, u) {
			deg[u]++ // the added self-loop
		}
	}
	invSqrt := make([]float32, n)
	for u := range deg {
		if deg[u] > 0 {
			invSqrt[u] = float32(1 / math.Sqrt(deg[u]))
		}
	}
	m := &Matrix{N: n, RowPtr: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		nbrs := g.Neighbors(u)
		hasSelf := false
		for _, v := range nbrs {
			if int(v) == u {
				hasSelf = true
			}
		}
		// Merge the self-loop into the sorted neighbor walk.
		emit := func(v int32) {
			m.ColIdx = append(m.ColIdx, v)
			m.Val = append(m.Val, invSqrt[u]*invSqrt[v])
		}
		emitted := false
		for _, v := range nbrs {
			if !hasSelf && !emitted && v > int32(u) {
				emit(int32(u))
				emitted = true
			}
			emit(v)
		}
		if !hasSelf && !emitted {
			emit(int32(u))
		}
		m.RowPtr[u+1] = int32(len(m.ColIdx))
	}
	return m
}

// SymNormalizedRows returns SymNormalized of the graph whose adjacency
// is b, rebuilding only the given rows (ascending, distinct) from b and
// copying every other row from old. old must already hold those other
// rows exactly — true when the rebuilt set covers every row whose
// neighborhood or neighbor degrees changed, i.e. the closed
// neighborhoods of every changed vertex. Rebuilding every row needs no
// old rows (old may be nil). old is never written, so readers of it
// stay valid. The result is a new matrix whose arrays have exactly the
// result's lengths; when into is non-nil (and not old) they reuse its
// storage where its capacity suffices, so into must have no readers.
//
// A row of D^{-1/2}(A+I)D^{-1/2} holds the neighbors plus the diagonal,
// so its length is the degree the normalization divides by; each
// value is float32(1/√deg u)·float32(1/√deg v), as in SymNormalized,
// and the rebuilt rows are bit-identical to it.
func SymNormalizedRows(into, old *Matrix, b *bitmat.Matrix, rows []int) *Matrix {
	n := b.N()
	// The rebuilt rows' columns first, diagonal merged in: their
	// lengths size the result exactly.
	var cols []int32
	ends := make([]int, len(rows))
	for k, u := range rows {
		start := len(cols)
		cols = b.AppendRow(cols, u)
		if !b.Get(u, u) {
			row := cols[start:]
			at := start + sort.Search(len(row), func(k int) bool { return row[k] > int32(u) })
			cols = append(cols, 0)
			copy(cols[at+1:], cols[at:])
			cols[at] = int32(u)
		}
		ends[k] = len(cols)
	}
	var store Matrix
	if into != nil {
		store = *into
	}
	m := &Matrix{N: n, RowPtr: grow(store.RowPtr, n+1)}
	m.RowPtr[0] = 0
	// keep shifts the untouched run [lo, hi) of old's row pointers to
	// where the run starts in m.
	keep := func(lo, hi int) {
		if lo < hi {
			off := m.RowPtr[lo] - old.RowPtr[lo]
			for i := lo; i < hi; i++ {
				m.RowPtr[i+1] = old.RowPtr[i+1] + off
			}
		}
	}
	lo, start := 0, 0
	for k, u := range rows {
		keep(lo, u)
		m.RowPtr[u+1] = m.RowPtr[u] + int32(ends[k]-start)
		lo, start = u+1, ends[k]
	}
	keep(lo, n)

	m.ColIdx = grow(store.ColIdx, int(m.RowPtr[n]))
	m.Val = grow(store.Val, int(m.RowPtr[n]))
	scale := func(v int32) float32 { return float32(1 / math.Sqrt(float64(m.RowNNZ(int(v))))) }
	splice := func(lo, hi int) {
		if lo < hi {
			copy(m.ColIdx[m.RowPtr[lo]:], old.ColIdx[old.RowPtr[lo]:old.RowPtr[hi]])
			copy(m.Val[m.RowPtr[lo]:], old.Val[old.RowPtr[lo]:old.RowPtr[hi]])
		}
	}
	lo, start = 0, 0
	for k, u := range rows {
		splice(lo, u)
		row := cols[start:ends[k]]
		copy(m.ColIdx[m.RowPtr[u]:], row)
		su := scale(int32(u))
		vals := m.Val[m.RowPtr[u]:m.RowPtr[u+1]]
		for j, v := range row {
			vals[j] = su * scale(v)
		}
		lo, start = u+1, ends[k]
	}
	splice(lo, n)
	return m
}

// grow returns s resliced to length n when its capacity allows, else a
// fresh slice of exactly n. Callers overwrite every element.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// RowNormalized returns D^{-1} A (mean aggregation, GraphSAGE style).
func RowNormalized(g *graph.Graph) *Matrix {
	m := FromGraph(g)
	for u := 0; u < m.N; u++ {
		_, vals := m.Row(u)
		if len(vals) == 0 {
			continue
		}
		inv := float32(1) / float32(len(vals))
		for k := range vals {
			vals[k] *= inv
		}
	}
	return m
}

// ScaledLaplacian returns 2L/lambdaMax - I where L = I - D^{-1/2} A
// D^{-1/2}, using the common lambdaMax ≈ 2 approximation, i.e.
// -D^{-1/2} A D^{-1/2}. ChebNet's recurrence operates on this matrix.
func ScaledLaplacian(g *graph.Graph) *Matrix {
	n := g.N()
	deg := make([]float64, n)
	for u := 0; u < n; u++ {
		deg[u] = float64(g.Degree(u))
	}
	invSqrt := make([]float32, n)
	for u := range deg {
		if deg[u] > 0 {
			invSqrt[u] = float32(1 / math.Sqrt(deg[u]))
		}
	}
	m := &Matrix{N: n, RowPtr: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			m.ColIdx = append(m.ColIdx, v)
			m.Val = append(m.Val, -invSqrt[u]*invSqrt[v])
		}
		m.RowPtr[u+1] = int32(len(m.ColIdx))
	}
	return m
}
