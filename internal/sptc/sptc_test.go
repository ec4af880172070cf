package sptc

import (
	"testing"

	"repro/internal/csr"
	"repro/internal/pattern"
	"repro/internal/venom"
)

func TestCostModelOrdering(t *testing.T) {
	c := DefaultCostModel()
	// For a reasonably dense conforming matrix, SPTC must beat CSR:
	// well-packed blocks (~N*V values each) batch 8 per instruction.
	n, h := 1024, 128
	nnz := n * 8
	blocks := nnz / 24 // dense blocks: most of the 32 slots used
	instrs := blocks / 8
	usedCols := blocks * 4
	csrCost := c.CSRSpMMCycles(nnz, n, h)
	sptcCost := c.VNMSpMMCycles(VNMStats{Fragments: instrs, UsedCols: usedCols, Blocks: blocks, V: 16, N: 2, K: 4}, h)
	if sptcCost >= csrCost {
		t.Errorf("SPTC (%v) should beat CSR (%v) on packed input", sptcCost, csrCost)
	}
	// For scattered ultra-sparse input (one instruction per nonzero —
	// no banding possible), SPTC should lose: CSR touches 100 values
	// while SPTC runs 100 full 16x16-slot instructions.
	sparseNNZ := 100
	csrSparse := c.CSRSpMMCycles(sparseNNZ, 2048, 64)
	sptcSparse := c.VNMSpMMCycles(VNMStats{Fragments: sparseNNZ, UsedCols: sparseNNZ, Blocks: sparseNNZ, V: 1, N: 2, K: 4}, 64)
	if sptcSparse <= csrSparse {
		t.Errorf("SPTC (%v) should lose to CSR (%v) on scattered ultra-sparse input", sptcSparse, csrSparse)
	}
}

func TestCostModelHScaling(t *testing.T) {
	// SPTC speedup over CSR should not shrink as H grows (paper: it
	// grows).
	c := DefaultCostModel()
	n := 2048
	nnz := n * 6
	blocks := nnz / 20
	stats := VNMStats{Fragments: blocks / 8, UsedCols: blocks * 4, Blocks: blocks, V: 16, N: 2, K: 4}
	var last float64
	for _, h := range []int{64, 128, 256, 512} {
		sp := c.CSRSpMMCycles(nnz, n, h) / c.VNMSpMMCycles(stats, h)
		if sp < last {
			t.Errorf("speedup decreased with H: %v after %v", sp, last)
		}
		last = sp
	}
}

func TestDenseTCFasterThanDenseCUDA(t *testing.T) {
	c := DefaultCostModel()
	if c.DenseTCGEMMCycles(512, 128) >= c.DenseGEMMCycles(512, 128) {
		t.Error("dense TC should beat dense CUDA cores")
	}
}

func TestFragmentCount(t *testing.T) {
	// 32x32 matrix, pattern 1:2:4: nonzeros in rows 0..15 of segment 0
	// share one fragment; a nonzero in row 20 segment 5 adds another.
	var rows, cols []int32
	var vals []float32
	for r := 0; r < 16; r++ {
		rows = append(rows, int32(r))
		cols = append(cols, int32(r%4))
		vals = append(vals, 1)
	}
	rows = append(rows, 20)
	cols = append(cols, 21)
	vals = append(vals, 1)
	a, err := csr.FromEntries(32, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := venom.Compress(a, pattern.NM(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0..15 form one 16-row band with 16 one-row blocks (8 blocks
	// per instruction at K=4 -> 2 instructions); row 20's lone block
	// sits in the second band (1 instruction).
	if got := FragmentCount(cm, 16); got != 3 {
		t.Errorf("FragmentCount = %d, want 3", got)
	}
	st := Stats(cm, DefaultCostModel())
	if st.Fragments != 3 || st.N != 2 || st.K != 4 {
		t.Errorf("Stats = %+v", st)
	}
	if st.Blocks != 17 {
		t.Errorf("Blocks = %d, want 17", st.Blocks)
	}
	// Each one-nonzero block selects exactly one column.
	if st.UsedCols != 17 {
		t.Errorf("UsedCols = %d, want 17", st.UsedCols)
	}
}

func TestFragmentCountLargeV(t *testing.T) {
	// V=32 > FragRows=16: each block is 2 fragments.
	var rows, cols []int32
	var vals []float32
	for r := 0; r < 32; r++ {
		rows = append(rows, int32(r))
		cols = append(cols, 0)
		vals = append(vals, 1)
	}
	a, err := csr.FromEntries(32, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := venom.Compress(a, pattern.New(32, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := FragmentCount(cm, 16); got != 2 {
		t.Errorf("FragmentCount = %d, want 2 (one 32-row block = two 16-row fragments)", got)
	}
}
