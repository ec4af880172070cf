package check

import (
	"repro/internal/bsr"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/venom"
)

// The single-goroutine references the exact oracles compare against.
// They are written independently of internal/spmm — plain loops, no
// tiling, no pool — but accumulate every output element in the same
// operand order the kernels promise (DESIGN.md §7), so a kernel at any
// worker count and tile size must reproduce them bit for bit.

// csrRef computes C = A x B row by row.
func csrRef(a *csr.Matrix, b *dense.Matrix) *dense.Matrix {
	c := dense.NewMatrix(a.N, b.Cols)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		cr := c.Row(i)
		for k, col := range cols {
			v := vals[k]
			for j, bv := range b.Row(int(col)) {
				cr[j] += v * bv
			}
		}
	}
	return c
}

// vnmRef computes C = A x B over the V:N:M compressed form, block row
// by block row, skipping zero padding slots.
func vnmRef(m *venom.Matrix, b *dense.Matrix) *dense.Matrix {
	c := dense.NewMatrix(m.N, b.Cols)
	vpb := m.ValuesPerBlock()
	for br := 0; br < len(m.BlockRowPtr)-1; br++ {
		rowBase := br * m.P.V
		vRows := min(m.P.V, m.N-rowBase)
		for bi := m.BlockRowPtr[br]; bi < m.BlockRowPtr[br+1]; bi++ {
			colBase := int(bi) * m.K
			valBase := int(bi) * vpb
			for dr := 0; dr < vRows; dr++ {
				cr := c.Row(rowBase + dr)
				off := valBase + dr*m.P.N
				for s := 0; s < m.P.N; s++ {
					v := m.Values[off+s]
					if v == 0 {
						continue
					}
					col := int(m.BlockCols[colBase+int(m.Meta[off+s])])
					for j, bv := range b.Row(col) {
						cr[j] += v * bv
					}
				}
			}
		}
	}
	return c
}

// hybridRef computes (comp + resid) x B: the compressed product, then
// the residual product added element-wise.
func hybridRef(comp *venom.Matrix, resid *csr.Matrix, b *dense.Matrix) *dense.Matrix {
	c := vnmRef(comp, b)
	if resid != nil && resid.NNZ() > 0 {
		c.Add(csrRef(resid, b))
	}
	return c
}

// bsrRef computes C = A x B for a binary BSR matrix, block by block.
func bsrRef(a *bsr.Matrix, b *dense.Matrix) *dense.Matrix {
	c := dense.NewMatrix(a.N, b.Cols)
	for br := 0; br < a.NumBlockRows(); br++ {
		for bi := a.RowPtr[br]; bi < a.RowPtr[br+1]; bi++ {
			bc := int(a.ColInd[bi])
			block := a.Val[int(bi)*a.M*a.M : (int(bi)+1)*a.M*a.M]
			for dr := 0; dr < a.M && br*a.M+dr < a.N; dr++ {
				cr := c.Row(br*a.M + dr)
				for dc := 0; dc < a.M; dc++ {
					col := bc*a.M + dc
					if block[dr*a.M+dc] == 0 || col >= a.N {
						continue
					}
					for j, bv := range b.Row(col) {
						cr[j] += bv
					}
				}
			}
		}
	}
	return c
}

// spmvRef computes y = A x row by row.
func spmvRef(a *csr.Matrix, x []float32) []float32 {
	y := make([]float32, a.N)
	for i := range y {
		cols, vals := a.Row(i)
		var sum float32
		for k, col := range cols {
			sum += vals[k] * x[col]
		}
		y[i] = sum
	}
	return y
}
