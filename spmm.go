package sogre

import (
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// Dense is a row-major dense float32 matrix.
type Dense = dense.Matrix

// NewDense allocates a zeroed rows x cols dense matrix.
func NewDense(rows, cols int) *Dense { return dense.NewMatrix(rows, cols) }

// CSRMatrix is a weighted sparse matrix in CSR form — the format the
// cuSPARSE-style baseline kernel consumes.
type CSRMatrix = csr.Matrix

// Compressed is a V:N:M compressed sparse matrix — the operand format
// of the sparse-tensor-core kernel.
type Compressed = venom.Matrix

// CSRFromGraph converts a graph's adjacency structure to CSR (unit
// weights).
func CSRFromGraph(g *Graph) *CSRMatrix { return csr.FromGraph(g) }

// Compress losslessly converts a pattern-conforming CSR matrix into
// the V:N:M compressed form. Returns an error describing the first
// violating meta-block if the matrix does not conform — run Reorder
// first.
func Compress(a *CSRMatrix, p Pattern) (*Compressed, error) {
	return venom.Compress(a, p)
}

// SplitToConform losslessly splits any matrix into a conforming
// compressed part plus a CSR residual (empty after a successful
// reorder): A = compressed + residual.
func SplitToConform(a *CSRMatrix, p Pattern) (*Compressed, *CSRMatrix, error) {
	return venom.SplitToConform(a, p)
}

// PruneToConform is the lossy baseline: magnitude-prunes entries until
// the matrix conforms. The returned stats report the pruned fraction.
func PruneToConform(a *CSRMatrix, p Pattern) (*CSRMatrix, venom.PruneStats, error) {
	return venom.PruneToConform(a, p)
}

// SpMMCSR computes C = A x B with the row-parallel CSR kernel (the
// cuSPARSE baseline stand-in).
func SpMMCSR(a *CSRMatrix, b *Dense) *Dense { return spmm.CSR(sched.Default(), nil, a, b) }

// SpMMCompressed computes C = A x B over the compressed operand,
// mirroring the SPTC execution structure.
func SpMMCompressed(a *Compressed, b *Dense) *Dense { return spmm.VNM(sched.Default(), nil, a, b) }

// CostModel is the calibrated cycle model of the GPU execution engines
// (CUDA-core CSR, dense tensor cores, sparse tensor cores).
type CostModel = sptc.CostModel

// DefaultCostModel returns the calibrated constants (see
// internal/sptc).
func DefaultCostModel() CostModel { return sptc.DefaultCostModel() }

// KernelReport carries a kernel execution's result, wall time and
// modeled cycles.
type KernelReport = spmm.Report

// RunSpMMCSR executes and reports the baseline kernel.
func RunSpMMCSR(a *CSRMatrix, b *Dense, cm CostModel) KernelReport {
	return spmm.RunCSR(sched.Default(), a, b, cm)
}

// RunSpMMCompressed executes and reports the SPTC kernel.
func RunSpMMCompressed(a *Compressed, b *Dense, cm CostModel) KernelReport {
	return spmm.RunVNM(sched.Default(), a, b, cm)
}

// Plan is a prepared sparse x dense matmul in the cusparseLt / Spatha
// style: describe and compress once, execute many times.
type Plan = spmm.Plan

// NewPlan compresses the sparse operand for repeated SPTC execution.
// Strict mode (hybrid = false) requires pattern conformity, exactly
// like cusparseLt compression; hybrid mode routes non-conforming
// entries through a CSR residual, staying lossless on any input.
func NewPlan(a *CSRMatrix, p Pattern, cm CostModel, hybrid bool) (*Plan, error) {
	return spmm.NewPlan(sched.Default(), a, p, cm, hybrid)
}
