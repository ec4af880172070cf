// Package sptc models GPU Sparse Tensor Cores: the mma.sp fragment
// geometry (m16n8k32 with 2:4 metadata, the shape the paper's kernels
// use), and a calibrated cycle-cost model for the three execution
// engines the paper compares — CUDA-core CSR SpMM (cuSPARSE baseline),
// dense tensor cores, and sparse tensor cores over V:N:M compressed
// operands.
//
// This package is the repository's substitution for A100 hardware
// (DESIGN.md §1): the cost model reproduces the relative throughputs
// that drive every speedup table in the paper. Constants are
// normalized so that one CUDA-core FMA on a regularly-accessed operand
// costs 1.0 cycles.
package sptc

// Fragment dimensions of mma.sp.sync.aligned.m16n8k32, the default
// shape of the paper's kernels (Section 4.5).
const (
	MmaM = 16 // rows of A and D
	MmaN = 8  // columns of B and D
	MmaK = 32 // logical inner dimension (2:4 sparse in A)
)

// CostModel holds normalized cycle costs for the execution engines.
// All values are in units of one CUDA-core FMA on cached operands.
type CostModel struct {
	// CSRElemCost is the cost per nonzero per output column of
	// CUDA-core CSR SpMM. It exceeds 1.0 because the gather of B rows
	// through the column-index array is irregular (cache-hostile), the
	// effect the paper's Section 5.2 discussion attributes the baseline
	// gap to.
	CSRElemCost float64
	// CSRRowOverhead is the per-row bookkeeping of the CSR kernel
	// (row-pointer loads, reductions).
	CSRRowOverhead float64
	// SlotCost is the cost per packed V:N:M value slot per output
	// column on the sparse tensor core. 1/16 reflects the ~16x
	// throughput of tensor-core FMA pipelines plus the 2x of the
	// sparsity feature over scalar CUDA-core FMA.
	SlotCost float64
	// BLoadCost is the per-selected-column per-output-column cost of
	// staging B fragments into registers; it is paid once per fragment
	// and amortized over the fragment's rows (the regular-access cache
	// benefit of the compact format).
	BLoadCost float64
	// FragOverhead is the fixed per-instruction-group cost: metadata
	// decode, index computation, fragment synchronization. Together
	// with the full-pipeline compute charge it is what makes
	// ultra-sparse matrices lose (Figure 4's 3.9% slowdown tail): a
	// scattered nonzero still pays for a full 16-row instruction.
	FragOverhead float64
	// DenseTCElemCost is the dense tensor core cost per element per
	// output column (for the dense-TC comparison point).
	DenseTCElemCost float64
	// FragRows is the row granularity of one mma.sp fragment (16 on
	// Ampere/Hopper).
	FragRows int
}

// DefaultCostModel returns constants calibrated so that the Figure-4
// style sweeps land in the paper's regime: geomean SpMM speedups of a
// few x that grow with the dense width H and the graph size class, a
// slowdown tail on ultra-sparse matrices, and larger-V formats winning
// when they conform.
func DefaultCostModel() CostModel {
	return CostModel{
		CSRElemCost:     2.0,
		CSRRowOverhead:  0.5,
		SlotCost:        1.0 / 16.0,
		BLoadCost:       0.25,
		FragOverhead:    80,
		DenseTCElemCost: 1.0 / 16.0,
		FragRows:        MmaM,
	}
}

// CSRSpMMCycles estimates CUDA-core CSR SpMM cycles for an nnz-nonzero,
// rows-row sparse matrix multiplied by a dense matrix with h columns.
func (c CostModel) CSRSpMMCycles(nnz, rows, h int) float64 {
	return float64(nnz)*float64(h)*c.CSRElemCost + float64(rows)*c.CSRRowOverhead
}

// DenseGEMMCycles estimates dense CUDA-core GEMM cycles (n x n by
// n x h).
func (c CostModel) DenseGEMMCycles(n, h int) float64 {
	return float64(n) * float64(n) * float64(h)
}

// DenseTCGEMMCycles estimates dense tensor-core GEMM cycles.
func (c CostModel) DenseTCGEMMCycles(n, h int) float64 {
	return float64(n) * float64(n) * float64(h) * c.DenseTCElemCost
}

// VNMStats are the structural counts of a compressed matrix that the
// SPTC cost depends on. Fragments is the number of mma.sp instruction
// groups (per 8-wide B tile) following the condensed packing of the
// Spatha layout; UsedCols the selected B rows staged; Blocks the
// stored meta-blocks. See FragmentCount.
type VNMStats struct {
	Fragments int
	UsedCols  int
	Blocks    int
	V, N, K   int
}

// VNMCycles itemizes the modeled SPTC cost of one kernel execution by
// instruction class — the per-stage breakdown the observability layer
// (internal/obs) exports and the Spatha/Magicube-style evaluations
// hinge on.
type VNMCycles struct {
	// MMACompute is the mma.sp pipeline charge: the full stored-slot
	// compute of every instruction group (padding slots execute
	// regardless — the source of the ultra-sparse penalty).
	MMACompute float64
	// BLoad is the fragment-staging charge for the selected B rows,
	// paid once per used column.
	BLoad float64
	// FragOverhead is the fixed per-instruction-group decode and
	// synchronization charge.
	FragOverhead float64
}

// Total returns the summed modeled cycles.
func (v VNMCycles) Total() float64 { return v.MMACompute + v.BLoad + v.FragOverhead }

// VNMSpMMCyclesDetail estimates sparse-tensor-core SpMM cycles for a
// V:N:M compressed matrix (described by its instruction statistics)
// against a dense matrix with h columns, itemized by instruction class.
func (c CostModel) VNMSpMMCyclesDetail(s VNMStats, h int) VNMCycles {
	perInstrPerCol := float64(MmaM) * float64(MmaK/2) / float64(MmaN) * c.SlotCost
	return VNMCycles{
		MMACompute:   float64(s.Fragments) * perInstrPerCol * float64(h),
		BLoad:        float64(s.UsedCols) * float64(h) * c.BLoadCost,
		FragOverhead: float64(s.Fragments) * c.FragOverhead,
	}
}

// VNMSpMMCycles estimates total sparse-tensor-core SpMM cycles; see
// VNMSpMMCyclesDetail for the per-instruction-class itemization.
func (c CostModel) VNMSpMMCycles(s VNMStats, h int) float64 {
	return c.VNMSpMMCyclesDetail(s, h).Total()
}
