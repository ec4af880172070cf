// Package baselines implements the comparison reordering the paper
// discusses: a Jigsaw-style pure *matrix* column reordering (Section 6:
// supports only basic 2:4, and — unlike SOGRE's graph reordering —
// destroys the adjacency matrix's symmetry).
package baselines

import (
	"math/bits"
	"sort"

	"repro/internal/bitmat"
	"repro/internal/pattern"
)

// JigsawResult reports a column-only reordering.
type JigsawResult struct {
	ColPerm       []int // new column position i holds original column ColPerm[i]
	Matrix        *bitmat.Matrix
	InitialPScore int
	FinalPScore   int
	Symmetric     bool // whether the result stayed symmetric (it won't, in general)
}

// Jigsaw performs a column-only reordering toward the basic N:M
// pattern, approximating the concurrent Jigsaw work: columns are
// redistributed across segments so that rows spread their nonzeros.
// It operates on the matrix alone — the result is generally
// asymmetric, so symmetry-dependent graph algorithms can no longer use
// it (the paper's first point of difference).
func Jigsaw(m *bitmat.Matrix, p pattern.VNM) *JigsawResult {
	n := m.N()
	res := &JigsawResult{InitialPScore: pattern.PScore(m, p)}
	// Greedy placement: take columns in descending density and assign
	// each to the free position whose window currently has the most
	// spare horizontal capacity across that column's rows.
	colDeg := make([]int, n)
	colRows := make([][]int32, n) // rows with a nonzero per column
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for wi, w := range row {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				j := wi*64 + b
				colDeg[j]++
				colRows[j] = append(colRows[j], int32(i))
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return colDeg[order[a]] > colDeg[order[b]] })

	segs := (n + p.M - 1) / p.M
	// load[s][i] = nonzeros already placed in window s of row i.
	// Stored sparsely per segment as a map from row to count.
	load := make([]map[int32]int, segs)
	free := make([][]int, segs) // free positions per segment
	for s := 0; s < segs; s++ {
		load[s] = make(map[int32]int)
		lo := s * p.M
		hi := lo + p.M
		if hi > n {
			hi = n
		}
		for c := lo; c < hi; c++ {
			free[s] = append(free[s], c)
		}
	}
	colPerm := make([]int, n) // position -> original column
	for _, col := range order {
		bestSeg, bestOverflow := -1, int(^uint(0)>>1)
		for s := 0; s < segs; s++ {
			if len(free[s]) == 0 {
				continue
			}
			overflow := 0
			for _, r := range colRows[col] {
				if load[s][r] >= p.N {
					overflow++
				}
			}
			if overflow < bestOverflow {
				bestOverflow, bestSeg = overflow, s
			}
			if overflow == 0 {
				break
			}
		}
		pos := free[bestSeg][0]
		free[bestSeg] = free[bestSeg][1:]
		colPerm[pos] = col
		for _, r := range colRows[col] {
			load[bestSeg][r]++
		}
	}
	// Materialize the column permutation.
	out := bitmat.New(n)
	for i := 0; i < n; i++ {
		for posJ := 0; posJ < n; posJ++ {
			if m.Get(i, colPerm[posJ]) {
				out.Set(i, posJ)
			}
		}
	}
	res.ColPerm = colPerm
	res.Matrix = out
	res.FinalPScore = pattern.PScore(out, p)
	res.Symmetric = out.IsSymmetric()
	return res
}
