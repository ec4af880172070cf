// Package check is the repository's differential-testing and
// invariant-checking subsystem: a machine-checkable equivalence oracle
// for the claim every speedup table rests on — that the
// reordered/compressed SPTC path computes exactly the same SpMM as the
// CSR baseline (SOGRE is lossless, unlike prune-to-conform).
//
// It provides three layers, shared by unit tests, fuzz targets and the
// sogre-verify CLI:
//
//   - SpMMEquivalence: the differential kernel matrix. A random sparse
//     operand is run through every kernel (naive dense reference,
//     serial CSR, row-parallel CSR, BSR, and the V:N:M/SPTC hybrid)
//     and element-wise agreement is asserted under the principled
//     float32 tolerance of Tol.
//   - Invariant checkers (invariants.go): permutation bijectivity,
//     edge-multiset preservation under reordering, compress/decompress
//     round trips, split-to-conform reassembly, compressed-metadata
//     validity, and cost-model sanity.
//   - Regime generators (regimes.go): seeded random operands drawn
//     from the internal/datasets density/degree regimes, plus decoders
//     that turn raw fuzz bytes into small graphs and matrices.
//
// Adding a kernel to the differential matrix means adding one
// KernelCase to Kernels (see README.md).
package check

import (
	"fmt"
	"math"

	"repro/internal/bsr"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/venom"
)

// Tol is the float32 tolerance policy of the differential harness.
//
// The kernels differ only in summation order, so the disagreement
// between any two of them is bounded by twice the forward error of a
// float32 dot product: for a row with k nonzeros,
//
//	|computed - exact| <= gamma_k * sum_j |A(i,j)| * |B(j,:)|max,
//	gamma_k = k*eps / (1 - k*eps), eps = 2^-24.
//
// Bound charges that bound for both sides plus a Safety factor for the
// extra addition the hybrid (compressed + residual) path performs, and
// adds Atol to absorb denormal-level noise on near-zero outputs.
type Tol struct {
	Safety float64 // multiplier on the paired forward-error bound
	Atol   float64 // absolute floor
}

// DefaultTol is the policy all repository checks use.
func DefaultTol() Tol { return Tol{Safety: 4, Atol: 1e-30} }

const eps32 = 1.0 / (1 << 24)

// Bound returns the allowed element-wise disagreement for an output
// row computed from k nonzeros whose condition sum (sum of
// |A(i,j)| * max_col |B(j,:)|) is condSum.
func (t Tol) Bound(k int, condSum float64) float64 {
	ke := float64(k+2) * eps32
	gamma := ke / (1 - ke)
	return t.Safety*2*gamma*condSum + t.Atol
}

// DiffError reports where and by how much two kernels disagreed.
type DiffError struct {
	Kernel   string
	Row, Col int
	Got, Ref float64
	Bound    float64
}

func (e *DiffError) Error() string {
	return fmt.Sprintf("check: kernel %s disagrees with reference at (%d,%d): got %g want %g (|diff| %g > bound %g)",
		e.Kernel, e.Row, e.Col, e.Got, e.Ref, math.Abs(e.Got-e.Ref), e.Bound)
}

// KernelCase is one entry of the differential kernel matrix.
type KernelCase struct {
	Name string
	// Binary restricts the case to unit-weight operands (the BSR
	// storage layer carries adjacency structure only).
	Binary bool
	// Run computes C = A x B. p is the V:N:M pattern compressed
	// kernels target.
	Run func(a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error)
}

// Kernels is the full differential matrix: every production SpMM path
// against the naive dense reference. New kernels are appended here and
// every existing harness, fuzz target and CLI check picks them up.
func Kernels() []KernelCase {
	return []KernelCase{
		{Name: "csr-serial", Run: func(a *csr.Matrix, b *dense.Matrix, _ pattern.VNM) (*dense.Matrix, error) {
			return spmm.CSR(sched.Serial(), nil, a, b), nil
		}},
		{Name: "csr-parallel", Run: func(a *csr.Matrix, b *dense.Matrix, _ pattern.VNM) (*dense.Matrix, error) {
			return spmm.CSR(sched.Default(), nil, a, b), nil
		}},
		{Name: "bsr", Binary: true, Run: func(a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error) {
			bm, err := bsr.FromBitMatrix(a.ToBitMatrix(), p.M)
			if err != nil {
				return nil, err
			}
			return spmm.BSR(sched.Default(), bm, b), nil
		}},
		{Name: "vnm-sptc-hybrid", Run: func(a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error) {
			comp, resid, err := venom.SplitToConform(a, p)
			if err != nil {
				return nil, err
			}
			if err := comp.ValidateMeta(); err != nil {
				return nil, err
			}
			return spmm.Hybrid(sched.Default(), nil, nil, comp, resid, b), nil
		}},
		// Tiled entries pin the scheduler's edge cases inside the same
		// matrix (and fuzz targets): a pathologically fine tiling on an
		// odd worker count, and the hybrid on a two-worker pool.
		{Name: "csr-tiled-fine", Run: func(a *csr.Matrix, b *dense.Matrix, _ pattern.VNM) (*dense.Matrix, error) {
			return spmm.CSR(sched.NewWithTarget(3, 1), nil, a, b), nil
		}},
		{Name: "hybrid-tiled-w2", Run: func(a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error) {
			comp, resid, err := venom.SplitToConform(a, p)
			if err != nil {
				return nil, err
			}
			return spmm.Hybrid(sched.New(2), nil, nil, comp, resid, b), nil
		}},
	}
}

// SpMMEquivalence runs A x B through the whole kernel matrix and
// asserts element-wise agreement with the dense reference under tol.
// Binary kernels (BSR) are exercised against the unit-weight structure
// of A, so the check covers them even for weighted operands.
func SpMMEquivalence(a *csr.Matrix, b *dense.Matrix, p pattern.VNM, tol Tol) error {
	if a.N != b.Rows {
		return fmt.Errorf("check: operand shapes disagree: A is %dx%d, B has %d rows", a.N, a.N, b.Rows)
	}
	ref := dense.MatMul(a.ToDense(), b)
	unit := unitWeights(a)
	var refUnit *dense.Matrix
	for _, kc := range Kernels() {
		opA, opRef := a, ref
		if kc.Binary {
			if refUnit == nil {
				refUnit = dense.MatMul(unit.ToDense(), b)
			}
			opA, opRef = unit, refUnit
		}
		got, err := kc.Run(opA, b, p)
		if err != nil {
			return fmt.Errorf("check: kernel %s: %w", kc.Name, err)
		}
		if err := Compare(kc.Name, got, opRef, opA, b, tol); err != nil {
			return err
		}
	}
	return nil
}

// Compare asserts element-wise agreement of got against ref under the
// per-row forward-error bound derived from the operands that produced
// them. It returns a *DiffError describing the worst violation.
func Compare(kernel string, got, ref *dense.Matrix, a *csr.Matrix, b *dense.Matrix, tol Tol) error {
	if got.Rows != ref.Rows || got.Cols != ref.Cols {
		return fmt.Errorf("check: kernel %s output is %dx%d, want %dx%d", kernel, got.Rows, got.Cols, ref.Rows, ref.Cols)
	}
	// max_j |B(k,j)| per B row, shared by every output row's bound.
	bMax := make([]float64, b.Rows)
	for k := 0; k < b.Rows; k++ {
		for _, v := range b.Row(k) {
			if av := math.Abs(float64(v)); av > bMax[k] {
				bMax[k] = av
			}
		}
	}
	var worst *DiffError
	worstExcess := 0.0
	for i := 0; i < got.Rows; i++ {
		cols, vals := a.Row(i)
		condSum := 0.0
		for k, c := range cols {
			condSum += math.Abs(float64(vals[k])) * bMax[c]
		}
		bound := tol.Bound(len(cols), condSum)
		gr, rr := got.Row(i), ref.Row(i)
		for j := range gr {
			d := math.Abs(float64(gr[j]) - float64(rr[j]))
			if d > bound && d-bound > worstExcess {
				worstExcess = d - bound
				worst = &DiffError{Kernel: kernel, Row: i, Col: j, Got: float64(gr[j]), Ref: float64(rr[j]), Bound: bound}
			}
		}
	}
	if worst != nil {
		return worst
	}
	return nil
}

// unitWeights returns a copy of a with every stored value set to 1 —
// the adjacency structure the binary BSR layer carries.
func unitWeights(a *csr.Matrix) *csr.Matrix {
	u := a.Clone()
	for i := range u.Val {
		u.Val[i] = 1
	}
	return u
}
