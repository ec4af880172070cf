// Package spmm provides the SpMM kernels the paper's evaluation
// compares: the CUDA-core CSR kernel (the cuSPARSE baseline PyG/DGL
// default to) and the sparse-tensor-core kernel over V:N:M compressed
// operands (the Spatha stand-in), plus the hybrid of the two, binary
// BSR and SpMV. Every kernel computes C = A x B for a sparse n-by-n A
// and dense n-by-h B and returns the same numerical result.
//
// There is one entry point per format, and each runs on the
// internal/sched tiled work-stealing engine through the pool it is
// handed. Serial is a pool of one: sched.Serial() executes every tile
// inline on the caller. The kernels are bit-deterministic: tiles own
// disjoint output rectangles and accumulate each element in operand
// order, so for any worker count and tile size the result equals the
// single-goroutine references in internal/check exactly (enforced
// bitwise there).
//
// The matrix-output kernels take an optional output matrix: nil
// allocates a fresh one, a non-nil matrix (typically arena-reused, see
// dense.Arena) must have the product's shape and is zeroed first.
package spmm

import (
	"fmt"
	"time"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/sched"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// axpy accumulates dst[j] += v * src[j] over the row slice, unrolled
// by 4 on the dense dimension. The unroll never changes accumulation
// order for any single output element (each dst[j] still receives its
// contributions in the caller's operand order), so every kernel built
// on it keeps the bitwise serial-equality contract while cutting loop
// overhead on the hot inner loop.
func axpy(dst, src []float32, v float32) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	dst = dst[:n]
	src = src[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		dst[j] += v * src[j]
		dst[j+1] += v * src[j+1]
		dst[j+2] += v * src[j+2]
		dst[j+3] += v * src[j+3]
	}
	for ; j < n; j++ {
		dst[j] += v * src[j]
	}
}

// output returns c ready to receive a rows-by-cols product: a fresh
// zeroed matrix when c is nil, otherwise c zeroed after its shape is
// validated.
func output(c *dense.Matrix, rows, cols int) *dense.Matrix {
	if c == nil {
		return dense.NewMatrix(rows, cols)
	}
	if c.Rows != rows || c.Cols != cols {
		panic(fmt.Sprintf("spmm: output matrix is %dx%d, want %dx%d", c.Rows, c.Cols, rows, cols))
	}
	c.Zero()
	return c
}

// CSR computes C = A x B with the row-parallel CSR kernel — the
// cuSPARSE CSR-SpMM (CUSPARSE_SPMM_CSR_ALG2) stand-in — into c (nil
// allocates), tiling rows by nonzero count (heavy rows split across
// B's columns, light rows batched). A tile panic (an injected fault or
// a genuine bug) is contained by the pool and re-raised here on the
// calling goroutine as a *sched.TileError — recoverable by the caller,
// with the pool left usable.
func CSR(p *sched.Pool, c *dense.Matrix, a *csr.Matrix, b *dense.Matrix) *dense.Matrix {
	p.Obs().Counter("spmm/dispatch/csr").Inc()
	c = output(c, a.N, b.Cols)
	h := b.Cols
	err := p.RunTiles(a.N, h, int64(a.NNZ()), func(r int) int64 { return int64(a.RowNNZ(r)) }, func(t sched.Tile) {
		for i := t.RowLo; i < t.RowHi; i++ {
			cols, vals := a.Row(i)
			cr := c.Data[i*h+t.ColLo : i*h+t.ColHi]
			for k, col := range cols {
				br := b.Data[int(col)*h+t.ColLo : int(col)*h+t.ColHi]
				axpy(cr, br, vals[k])
			}
		}
	})
	if err != nil {
		panic(err)
	}
	return c
}

// CSRRow computes row i of A x B into dst, reading row j of B as
// b(j): dst is zeroed, then receives A[i][j]·B[j] for each stored j in
// column order through the same axpy as CSR's tile body. Every output
// element therefore accumulates the same terms in the same order, and
// a row recomputed alone is bit-identical to that row of CSR — how an
// incremental update patches only the rows an edit touched.
func CSRRow(dst []float32, a *csr.Matrix, i int, b func(j int32) []float32) {
	clear(dst)
	cols, vals := a.Row(i)
	for k, col := range cols {
		axpy(dst, b(col), vals[k])
	}
}

// VNM computes C = A x B over the V:N:M compressed representation
// into c (nil allocates), mirroring the SPTC execution structure:
// block rows in parallel (one warp each), tiled by their stored-slot
// count, with packed values and metadata-selected columns reused
// across the block's V rows. The regular, compact access pattern is
// what makes this kernel fast on sparse tensor cores; on a CPU (which
// lacks that hardware) it runs at rough parity with CSR, and the
// hardware advantage is captured by the cycle model instead.
func VNM(p *sched.Pool, c *dense.Matrix, m *venom.Matrix, b *dense.Matrix) *dense.Matrix {
	p.Obs().Counter("spmm/dispatch/vnm").Inc()
	c = output(c, m.N, b.Cols)
	blockRows := len(m.BlockRowPtr) - 1
	vpb := int64(m.ValuesPerBlock())
	err := p.RunTiles(blockRows, b.Cols, int64(m.NumBlocks())*vpb,
		func(br int) int64 { return int64(m.BlockRowBlocks(br)) * vpb },
		func(t sched.Tile) { vnmTile(m, b, c, t) })
	if err != nil {
		panic(err)
	}
	return c
}

// vnmTile executes the compressed kernel over one output tile: block
// rows [RowLo, RowHi) restricted to output columns [ColLo, ColHi).
// Block rows map to disjoint matrix-row ranges, so tiles from a
// partition never share an output element.
func vnmTile(m *venom.Matrix, b, c *dense.Matrix, t sched.Tile) {
	vpb := m.ValuesPerBlock()
	h := b.Cols
	nVals := m.P.N
	bData := b.Data
	cData := c.Data
	for br := t.RowLo; br < t.RowHi; br++ {
		rowBase := br * m.P.V
		vRows := m.P.V
		if rowBase+vRows > m.N {
			vRows = m.N - rowBase
		}
		for bi := m.BlockRowPtr[br]; bi < m.BlockRowPtr[br+1]; bi++ {
			colBase := int(bi) * m.K
			valBase := int(bi) * vpb
			for dr := 0; dr < vRows; dr++ {
				cr := cData[(rowBase+dr)*h+t.ColLo : (rowBase+dr)*h+t.ColHi]
				off := valBase + dr*nVals
				for s := 0; s < nVals; s++ {
					v := m.Values[off+s]
					if v == 0 {
						continue
					}
					col := int(m.BlockCols[colBase+int(m.Meta[off+s])])
					brow := bData[col*h+t.ColLo : col*h+t.ColHi]
					axpy(cr, brow, v)
				}
			}
		}
	}
}

// Hybrid computes the V:N:M/SPTC hybrid C = (comp + resid) x B into c
// (nil allocates): the compressed kernel plus the CSR kernel over the
// residual entries outside the pattern (resid may be nil or empty).
// scratch, when non-nil, is reused for the residual product (it must
// match c's shape). The residual product is always computed separately
// and element-wise added in index order — accumulating it directly
// into c would change float32 summation order and break the bitwise
// reference contract.
func Hybrid(p *sched.Pool, c, scratch *dense.Matrix, comp *venom.Matrix, resid *csr.Matrix, b *dense.Matrix) *dense.Matrix {
	p.Obs().Counter("spmm/dispatch/hybrid").Inc()
	c = VNM(p, c, comp, b)
	if resid != nil && resid.NNZ() > 0 {
		c.Add(CSR(p, scratch, resid, b))
	}
	return c
}

// Report carries one kernel execution's outcome: the result, wall
// time, and modeled GPU cycles under the SPTC cost model.
type Report struct {
	C       *dense.Matrix
	Wall    time.Duration
	Cycles  float64
	Kernel  string
	Details string
}

// RunCSR executes and reports the CSR kernel on pool p.
func RunCSR(p *sched.Pool, a *csr.Matrix, b *dense.Matrix, cm sptc.CostModel) Report {
	start := time.Now()
	c := CSR(p, nil, a, b)
	return Report{
		C:      c,
		Wall:   time.Since(start),
		Cycles: cm.CSRSpMMCycles(a.NNZ(), a.N, b.Cols),
		Kernel: "csr-cuda",
	}
}

// RunVNM executes and reports the SPTC kernel over a compressed
// matrix on pool p.
func RunVNM(p *sched.Pool, m *venom.Matrix, b *dense.Matrix, cm sptc.CostModel) Report {
	start := time.Now()
	c := VNM(p, nil, m, b)
	return Report{
		C:      c,
		Wall:   time.Since(start),
		Cycles: cm.VNMSpMMCycles(sptc.Stats(m, cm), b.Cols),
		Kernel: "vnm-sptc",
	}
}
