package spmm

import (
	"repro/internal/bsr"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/sched"
)

// SpMV computes y = A x for a CSR matrix and dense vector, row-parallel
// on pool p — the H = 1 degenerate case of SpMM. With a single output
// column there is no column dimension to split heavy rows over; each
// row's dot product stays with one worker, which is exactly what keeps
// the accumulation order — and hence the bits — identical at every
// worker count. A tile panic surfaces as a *sched.TileError, as in CSR.
func SpMV(p *sched.Pool, a *csr.Matrix, x []float32) []float32 {
	if len(x) != a.N {
		panic("spmm: SpMV dimension mismatch")
	}
	y := make([]float32, a.N)
	err := p.RunTiles(a.N, 1, int64(a.NNZ()), func(r int) int64 { return int64(a.RowNNZ(r)) }, func(t sched.Tile) {
		spmvRange(a, x, y, t.RowLo, t.RowHi)
	})
	if err != nil {
		panic(err)
	}
	return y
}

func spmvRange(a *csr.Matrix, x, y []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		cols, vals := a.Row(i)
		var sum float32
		for k, c := range cols {
			sum += vals[k] * x[c]
		}
		y[i] = sum
	}
}

// BSR computes C = A x B for a binary BSR matrix (the paper's Listing-1
// storage) and a dense B on pool p: block-row parallel, tiled by each
// block row's stored-block population, with the M-by-M block values
// driving unit-weight accumulations. Used to validate that the BSR
// storage layer carries exactly the adjacency structure. A tile panic
// surfaces as a *sched.TileError, as in CSR.
func BSR(p *sched.Pool, a *bsr.Matrix, b *dense.Matrix) *dense.Matrix {
	c := dense.NewMatrix(a.N, b.Cols)
	blockWork := int64(a.M) * int64(a.M)
	err := p.RunTiles(a.NumBlockRows(), b.Cols, int64(a.NumBlocks())*blockWork,
		func(br int) int64 { return int64(a.BlockRowBlocks(br)) * blockWork },
		func(t sched.Tile) { bsrTile(a, b, c, t) })
	if err != nil {
		panic(err)
	}
	return c
}

// bsrTile executes the BSR kernel over block rows [RowLo, RowHi)
// restricted to output columns [ColLo, ColHi). Block rows map to
// disjoint matrix-row ranges, so partition tiles never share output.
func bsrTile(a *bsr.Matrix, b, c *dense.Matrix, t sched.Tile) {
	h := b.Cols
	for br := t.RowLo; br < t.RowHi; br++ {
		for bi := a.RowPtr[br]; bi < a.RowPtr[br+1]; bi++ {
			bc := int(a.ColInd[bi])
			block := a.Val[int(bi)*a.M*a.M : (int(bi)+1)*a.M*a.M]
			for dr := 0; dr < a.M; dr++ {
				r := br*a.M + dr
				if r >= a.N {
					break
				}
				cr := c.Data[r*h+t.ColLo : r*h+t.ColHi]
				for dc := 0; dc < a.M; dc++ {
					if block[dr*a.M+dc] == 0 {
						continue
					}
					col := bc*a.M + dc
					if col >= a.N {
						continue
					}
					brow := b.Data[col*h+t.ColLo : col*h+t.ColHi]
					for j, bv := range brow {
						cr[j] += bv
					}
				}
			}
		}
	}
}
