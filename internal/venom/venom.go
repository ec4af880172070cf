// Package venom implements the V:N:M compressed sparse format of the
// VENOM/Spatha line of work the paper executes on (Section 4.5): the
// matrix is a grid of V-by-M meta-blocks; each nonzero meta-block
// records the (at most K) columns it uses, and each of its rows packs
// at most N values together with 2-bit metadata indices selecting which
// of the K columns each value belongs to — exactly the operand layout
// the mma.sp instruction consumes.
//
// Compression is lossless for matrices conforming to the V:N:M pattern
// (which SOGRE reordering produces); PruneToConform implements the
// paper's lossy "revised-pruned" baseline that zeroes
// minimum-magnitude entries until the pattern holds.
package venom

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/csr"
	"repro/internal/pattern"
)

// Matrix is an n-by-n sparse matrix compressed in V:N:M form.
// Meta-blocks that are entirely zero are not stored; the block
// structure is itself CSR-indexed by block row.
type Matrix struct {
	N int
	P pattern.VNM
	K int // effective column budget per meta-block

	// BlockRowPtr indexes, per block row (V matrix rows), the range of
	// stored meta-blocks in the parallel arrays below.
	BlockRowPtr []int32
	// BlockSeg is each stored meta-block's segment (column stripe)
	// index.
	BlockSeg []int32
	// BlockCols holds K global column ids per stored block, padded with
	// -1 when the block uses fewer than K columns.
	BlockCols []int32
	// Values holds V*N packed values per stored block, row-major within
	// the block; rows with fewer than N nonzeros are zero-padded.
	Values []float32
	// Meta holds the 2-bit column-selector per packed value (stored one
	// per byte for simplicity; real hardware packs 16 per word). The
	// selector indexes into the block's BlockCols entries.
	Meta []uint8
}

// NumBlocks returns the number of stored meta-blocks.
func (m *Matrix) NumBlocks() int { return len(m.BlockSeg) }

// BlockRowBlocks returns the number of stored meta-blocks in block row
// br — the per-block-row work estimate the tile scheduler balances.
func (m *Matrix) BlockRowBlocks(br int) int {
	return int(m.BlockRowPtr[br+1] - m.BlockRowPtr[br])
}

// ValuesPerBlock returns V*N, the packed-value count per meta-block.
func (m *Matrix) ValuesPerBlock() int { return m.P.V * m.P.N }

// CompressedBytes estimates the storage footprint: values (4B), meta
// (2 bits), column ids (4B per K), block indices.
func (m *Matrix) CompressedBytes() int {
	return len(m.Values)*4 + len(m.Meta)/4 + len(m.BlockCols)*4 + len(m.BlockSeg)*4 + len(m.BlockRowPtr)*4
}

// ConformError reports where a matrix violates the V:N:M pattern.
type ConformError struct {
	BlockRow, Seg int
	Cols          int // distinct columns found (vertical violation), or 0
	RowNNZ        int // nonzeros found in a row vector (horizontal), or 0
}

func (e *ConformError) Error() string {
	if e.Cols > 0 {
		return fmt.Sprintf("venom: meta-block (row %d, seg %d) uses %d columns (vertical constraint)", e.BlockRow, e.Seg, e.Cols)
	}
	return fmt.Sprintf("venom: meta-block (row %d, seg %d) has a row with %d nonzeros (horizontal constraint)", e.BlockRow, e.Seg, e.RowNNZ)
}

// Compress losslessly converts a CSR matrix that conforms to the V:N:M
// pattern. It returns a *ConformError if any meta-block violates the
// pattern — conforming input is exactly what the SOGRE reordering
// produces.
func Compress(a *csr.Matrix, p pattern.VNM) (*Matrix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := p.EffK()
	n := a.N
	blockRows := (n + p.V - 1) / p.V
	out := &Matrix{N: n, P: p, K: k, BlockRowPtr: make([]int32, blockRows+1)}
	vpb := p.V * p.N
	for br := 0; br < blockRows; br++ {
		rLo := br * p.V
		rHi := rLo + p.V
		if rHi > n {
			rHi = n
		}
		// Gather, per segment, the set of used columns in this stripe
		// of rows. Only touched segments are materialized.
		type blockInfo struct {
			cols []int32
		}
		blocks := map[int32]*blockInfo{}
		for r := rLo; r < rHi; r++ {
			cols, vals := a.Row(r)
			for i, c := range cols {
				// Explicitly stored zeros are numerically inert and not
				// representable in the packed form (indistinguishable
				// from padding): skip them rather than letting them
				// consume column budget or value slots.
				if vals[i] == 0 {
					continue
				}
				seg := c / int32(p.M)
				b := blocks[seg]
				if b == nil {
					b = &blockInfo{}
					blocks[seg] = b
				}
				found := false
				for _, existing := range b.cols {
					if existing == c {
						found = true
						break
					}
				}
				if !found {
					b.cols = append(b.cols, c)
				}
			}
		}
		segs := make([]int32, 0, len(blocks))
		for s := range blocks {
			segs = append(segs, s)
		}
		sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
		for _, seg := range segs {
			b := blocks[seg]
			if len(b.cols) > k {
				return nil, &ConformError{BlockRow: br, Seg: int(seg), Cols: len(b.cols)}
			}
			sort.Slice(b.cols, func(i, j int) bool { return b.cols[i] < b.cols[j] })
			colPos := map[int32]uint8{}
			for i, c := range b.cols {
				colPos[c] = uint8(i)
			}
			blockIdx := len(out.BlockSeg)
			out.BlockSeg = append(out.BlockSeg, seg)
			for i := 0; i < k; i++ {
				if i < len(b.cols) {
					out.BlockCols = append(out.BlockCols, b.cols[i])
				} else {
					out.BlockCols = append(out.BlockCols, -1)
				}
			}
			out.Values = append(out.Values, make([]float32, vpb)...)
			out.Meta = append(out.Meta, make([]uint8, vpb)...)
			base := blockIdx * vpb
			for r := rLo; r < rHi; r++ {
				cols, vals := a.Row(r)
				slot := 0
				for i, c := range cols {
					if vals[i] == 0 || c/int32(p.M) != seg {
						continue
					}
					if slot >= p.N {
						return nil, &ConformError{BlockRow: br, Seg: int(seg), RowNNZ: slot + 1}
					}
					off := base + (r-rLo)*p.N + slot
					out.Values[off] = vals[i]
					out.Meta[off] = colPos[c]
					slot++
				}
			}
		}
		out.BlockRowPtr[br+1] = int32(len(out.BlockSeg))
	}
	return out, nil
}

// DecompressError reports a structurally invalid packed entry found
// while expanding a compressed matrix: a nonzero value slot whose
// metadata selector resolves to a column id outside [0, N). It carries
// the block coordinates (block row, stored-block index) and the matrix
// row so a corrupted operand can be localized — the failure mode the
// fault-injection layer exercises and the recovery path classifies.
type DecompressError struct {
	BlockRow int   // block row (V matrix rows each)
	Block    int   // global stored-block index
	Row      int   // matrix row of the offending value
	Col      int32 // resolved (invalid) column id
}

func (e *DecompressError) Error() string {
	return fmt.Sprintf("venom: decompress: block %d (block row %d, matrix row %d) resolves to invalid column %d",
		e.Block, e.BlockRow, e.Row, e.Col)
}

// Decompress expands the compressed matrix back to CSR. A structurally
// invalid packed entry (possible only from a corrupted representation —
// Compress never produces one) is returned as a *DecompressError with
// its block coordinates rather than panicking, so callers on the
// recovery path can classify and retry.
func (m *Matrix) Decompress() (*csr.Matrix, error) {
	var rows, cols []int32
	var vals []float32
	vpb := m.ValuesPerBlock()
	blockRows := len(m.BlockRowPtr) - 1
	for br := 0; br < blockRows; br++ {
		for bi := m.BlockRowPtr[br]; bi < m.BlockRowPtr[br+1]; bi++ {
			base := int(bi) * vpb
			colBase := int(bi) * m.K
			for dr := 0; dr < m.P.V; dr++ {
				r := br*m.P.V + dr
				if r >= m.N {
					break
				}
				for s := 0; s < m.P.N; s++ {
					off := base + dr*m.P.N + s
					v := m.Values[off]
					if v == 0 {
						continue
					}
					c := m.BlockCols[colBase+int(m.Meta[off])]
					if c < 0 || int(c) >= m.N {
						return nil, &DecompressError{BlockRow: br, Block: int(bi), Row: r, Col: c}
					}
					rows = append(rows, int32(r))
					cols = append(cols, c)
					vals = append(vals, v)
				}
			}
		}
	}
	out, err := csr.FromEntries(m.N, rows, cols, vals)
	if err != nil {
		// Unreachable for in-range entries (rows/cols are bounds-checked
		// above), kept as a guard with context instead of a panic.
		return nil, fmt.Errorf("venom: decompress: %w", err)
	}
	return out, nil
}

// PruneStats reports what PruneToConform removed.
type PruneStats struct {
	TotalNNZ  int
	PrunedNNZ int
}

// Ratio returns the pruned fraction (the paper Table 5's "Prune
// ratio").
func (s PruneStats) Ratio() float64 {
	if s.TotalNNZ == 0 {
		return 0
	}
	return float64(s.PrunedNNZ) / float64(s.TotalNNZ)
}

// PruneToConform implements the revised-pruned baseline: for each
// meta-block it keeps the K columns with the largest total magnitude
// (zeroing entries in other columns), then for each row vector keeps
// the N largest-magnitude entries. The result conforms to the pattern
// by construction but is lossy — exactly the error source Table 5
// quantifies.
func PruneToConform(a *csr.Matrix, p pattern.VNM) (*csr.Matrix, PruneStats, error) {
	if err := p.Validate(); err != nil {
		return nil, PruneStats{}, err
	}
	k := p.EffK()
	n := a.N
	keep := make([]bool, len(a.Val))
	for i := range keep {
		keep[i] = true
	}
	stats := PruneStats{TotalNNZ: a.NNZ()}
	blockRows := (n + p.V - 1) / p.V
	for br := 0; br < blockRows; br++ {
		rLo := br * p.V
		rHi := rLo + p.V
		if rHi > n {
			rHi = n
		}
		// Column magnitude per segment.
		type colMag struct {
			col int32
			mag float64
		}
		segCols := map[int32]map[int32]float64{}
		for r := rLo; r < rHi; r++ {
			cols, vals := a.Row(r)
			for i, c := range cols {
				seg := c / int32(p.M)
				if segCols[seg] == nil {
					segCols[seg] = map[int32]float64{}
				}
				segCols[seg][c] += math.Abs(float64(vals[i]))
			}
		}
		kept := map[int32]bool{}
		for _, mags := range segCols {
			if len(mags) <= k {
				for c := range mags {
					kept[c] = true
				}
				continue
			}
			list := make([]colMag, 0, len(mags))
			for c, m := range mags {
				list = append(list, colMag{c, m})
			}
			sort.Slice(list, func(i, j int) bool {
				if list[i].mag != list[j].mag {
					return list[i].mag > list[j].mag
				}
				return list[i].col < list[j].col
			})
			for _, cm := range list[:k] {
				kept[cm.col] = true
			}
		}
		// Apply vertical pruning, then horizontal top-N per row vector.
		for r := rLo; r < rHi; r++ {
			cols, vals := a.Row(r)
			base := a.RowPtr[r]
			// Per segment, collect surviving entries.
			bySeg := map[int32][]int{} // local indices
			for i, c := range cols {
				if !kept[c] {
					keep[base+int32(i)] = false
					stats.PrunedNNZ++
					continue
				}
				seg := c / int32(p.M)
				bySeg[seg] = append(bySeg[seg], i)
			}
			for _, idxs := range bySeg {
				if len(idxs) <= p.N {
					continue
				}
				sort.Slice(idxs, func(x, y int) bool {
					ax := math.Abs(float64(vals[idxs[x]]))
					ay := math.Abs(float64(vals[idxs[y]]))
					if ax != ay {
						return ax > ay
					}
					return idxs[x] < idxs[y]
				})
				for _, i := range idxs[p.N:] {
					keep[base+int32(i)] = false
					stats.PrunedNNZ++
				}
			}
		}
	}
	// Rebuild CSR with kept entries.
	out := &csr.Matrix{N: n, RowPtr: make([]int32, n+1)}
	for r := 0; r < n; r++ {
		cols, vals := a.Row(r)
		base := a.RowPtr[r]
		for i := range cols {
			if keep[base+int32(i)] {
				out.ColIdx = append(out.ColIdx, cols[i])
				out.Val = append(out.Val, vals[i])
			}
		}
		out.RowPtr[r+1] = int32(len(out.ColIdx))
	}
	return out, stats, nil
}

// SplitToConform losslessly splits a matrix into a V:N:M-conforming
// part (compressed) and a residual CSR holding every entry that did not
// fit the pattern: A = Decompress(compressed) + residual. After SOGRE
// reordering the residual is empty or tiny; the hybrid lets the SPTC
// kernel run the conforming bulk while CUDA cores mop up the rest,
// keeping execution lossless even on matrices that never fully conform.
func SplitToConform(a *csr.Matrix, p pattern.VNM) (*Matrix, *csr.Matrix, error) {
	kept, _, err := PruneToConform(a, p)
	if err != nil {
		return nil, nil, err
	}
	compressed, err := Compress(kept, p)
	if err != nil {
		return nil, nil, err
	}
	// residual = a - kept (kept entries are verbatim copies, so the
	// difference is exactly the dropped entries).
	res := &csr.Matrix{N: a.N, RowPtr: make([]int32, a.N+1)}
	for r := 0; r < a.N; r++ {
		aCols, aVals := a.Row(r)
		kCols, _ := kept.Row(r)
		ki := 0
		for i, c := range aCols {
			for ki < len(kCols) && kCols[ki] < c {
				ki++
			}
			if ki < len(kCols) && kCols[ki] == c {
				ki++
				continue
			}
			res.ColIdx = append(res.ColIdx, c)
			res.Val = append(res.Val, aVals[i])
		}
		res.RowPtr[r+1] = int32(len(res.ColIdx))
	}
	return compressed, res, nil
}

// ValidateMeta checks the structural invariants of the compressed
// representation: selectors in range, selected columns inside the
// block's stripe, padded slots zero. It mirrors the metadata checks the
// SPTC hardware performs when loading sparse fragments.
func (m *Matrix) ValidateMeta() error {
	vpb := m.ValuesPerBlock()
	for bi := 0; bi < m.NumBlocks(); bi++ {
		seg := m.BlockSeg[bi]
		nCols := 0
		for i := 0; i < m.K; i++ {
			c := m.BlockCols[bi*m.K+i]
			if c < 0 {
				continue
			}
			nCols++
			if c/int32(m.P.M) != seg {
				return fmt.Errorf("venom: block %d column %d outside segment %d", bi, c, seg)
			}
		}
		if nCols > m.K {
			return fmt.Errorf("venom: block %d uses %d columns > K=%d", bi, nCols, m.K)
		}
		for off := bi * vpb; off < (bi+1)*vpb; off++ {
			sel := int(m.Meta[off])
			if sel >= m.K {
				return fmt.Errorf("venom: block %d metadata selector %d out of range", bi, sel)
			}
			if m.Values[off] != 0 && m.BlockCols[bi*m.K+sel] < 0 {
				return fmt.Errorf("venom: block %d value selects padded column", bi)
			}
		}
	}
	return nil
}
