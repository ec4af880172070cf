package check

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/bsr"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// This file is the scheduler's differential layer: every pooled kernel
// paired with its single-goroutine reference (reference.go) under an
// *exact* oracle. The tiled execution engine owes its callers
// bit-determinism (tiles own disjoint output rectangles, each element
// accumulated in operand order — DESIGN.md §7), so unlike the
// dense-reference matrix in check.go, which tolerates reordered
// float32 summation, the twin comparison tolerates nothing: a single
// flipped bit fails it.

// WorkerCounts returns the worker-count ladder the harness verifies
// kernels at — {1, 2, 4, NumCPU}, deduplicated and sorted.
func WorkerCounts() []int {
	set := map[int]bool{1: true, 2: true, 4: true, runtime.NumCPU(): true}
	var out []int
	for w := range set {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// TileTargets returns the per-tile cost targets the harness sweeps: a
// pathologically fine tiling, two mid sizes, and 0 for the pool's
// automatic target.
func TileTargets() []int64 { return []int64{1, 16, 256, 0} }

// TwinCase pairs a pooled kernel with the serial reference it must
// match bit-for-bit.
type TwinCase struct {
	Name string
	// Binary restricts the case to unit-weight operands (BSR carries
	// adjacency structure only).
	Binary bool
	// Serial computes the single-goroutine reference.
	Serial func(a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error)
	// Parallel computes the same product on the given pool.
	Parallel func(pool *sched.Pool, a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error)
}

// hybridRefOf is the reference side of the split-based twins: the
// hybrid reference over A's V:N:M split.
func hybridRefOf(a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error) {
	comp, resid, err := venom.SplitToConform(a, p)
	if err != nil {
		return nil, err
	}
	return hybridRef(comp, resid, b), nil
}

// Twins returns the kernel/reference pairs: CSR, the compressed V:N:M
// kernel, the V:N:M/SPTC hybrid (compressed plus CSR residual), the
// cusparseLt-style spmm.Plan executing the hybrid, binary BSR, and
// SpMV (results widened to an n-by-1 matrix).
func Twins() []TwinCase {
	return []TwinCase{
		{
			Name: "csr",
			Serial: func(a *csr.Matrix, b *dense.Matrix, _ pattern.VNM) (*dense.Matrix, error) {
				return csrRef(a, b), nil
			},
			Parallel: func(pool *sched.Pool, a *csr.Matrix, b *dense.Matrix, _ pattern.VNM) (*dense.Matrix, error) {
				return spmm.CSR(pool, nil, a, b), nil
			},
		},
		{
			Name: "vnm",
			Serial: func(a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error) {
				comp, _, err := venom.SplitToConform(a, p)
				if err != nil {
					return nil, err
				}
				return vnmRef(comp, b), nil
			},
			Parallel: func(pool *sched.Pool, a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error) {
				comp, _, err := venom.SplitToConform(a, p)
				if err != nil {
					return nil, err
				}
				return spmm.VNM(pool, nil, comp, b), nil
			},
		},
		{
			Name:   "vnm-sptc-hybrid",
			Serial: hybridRefOf,
			Parallel: func(pool *sched.Pool, a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error) {
				comp, resid, err := venom.SplitToConform(a, p)
				if err != nil {
					return nil, err
				}
				return spmm.Hybrid(pool, nil, nil, comp, resid, b), nil
			},
		},
		{
			Name:   "plan",
			Serial: hybridRefOf,
			Parallel: func(pool *sched.Pool, a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error) {
				pl, err := spmm.NewPlan(pool, a, p, sptc.DefaultCostModel(), true)
				if err != nil {
					return nil, err
				}
				return pl.Execute(b)
			},
		},
		{
			Name:   "bsr",
			Binary: true,
			Serial: func(a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error) {
				bm, err := bsr.FromBitMatrix(a.ToBitMatrix(), p.M)
				if err != nil {
					return nil, err
				}
				return bsrRef(bm, b), nil
			},
			Parallel: func(pool *sched.Pool, a *csr.Matrix, b *dense.Matrix, p pattern.VNM) (*dense.Matrix, error) {
				bm, err := bsr.FromBitMatrix(a.ToBitMatrix(), p.M)
				if err != nil {
					return nil, err
				}
				return spmm.BSR(pool, bm, b), nil
			},
		},
		{
			Name: "spmv",
			Serial: func(a *csr.Matrix, b *dense.Matrix, _ pattern.VNM) (*dense.Matrix, error) {
				return vecAsMatrix(spmvRef(a, firstColumn(b))), nil
			},
			Parallel: func(pool *sched.Pool, a *csr.Matrix, b *dense.Matrix, _ pattern.VNM) (*dense.Matrix, error) {
				return vecAsMatrix(spmm.SpMV(pool, a, firstColumn(b))), nil
			},
		},
	}
}

func firstColumn(b *dense.Matrix) []float32 {
	x := make([]float32, b.Rows)
	for i := range x {
		x[i] = b.At(i, 0)
	}
	return x
}

func vecAsMatrix(y []float32) *dense.Matrix {
	return dense.FromData(len(y), 1, y)
}

// BitwiseError reports a kernel that failed exact equality with its
// serial reference — a determinism-contract violation, not a rounding
// disagreement.
type BitwiseError struct {
	Kernel   string
	Workers  int
	Target   int64
	Row, Col int
	Got, Ref float32
}

func (e *BitwiseError) Error() string {
	return fmt.Sprintf("check: parallel kernel %s (workers=%d, tile target=%d) is not bit-identical to its serial reference at (%d,%d): got %x want %x",
		e.Kernel, e.Workers, e.Target, e.Row, e.Col,
		math.Float32bits(e.Got), math.Float32bits(e.Ref))
}

// BitwiseEqual asserts got and ref agree in every bit (NaN payloads
// included). Returns a *BitwiseError locating the first flip.
func BitwiseEqual(kernel string, workers int, target int64, got, ref *dense.Matrix) error {
	if got.Rows != ref.Rows || got.Cols != ref.Cols {
		return fmt.Errorf("check: kernel %s output is %dx%d, want %dx%d", kernel, got.Rows, got.Cols, ref.Rows, ref.Cols)
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(ref.Data[i]) {
			return &BitwiseError{
				Kernel: kernel, Workers: workers, Target: target,
				Row: i / got.Cols, Col: i % got.Cols,
				Got: got.Data[i], Ref: ref.Data[i],
			}
		}
	}
	return nil
}

// ParallelEquivalence runs every twin pair on A x B across the given
// worker counts and tile-cost targets (nil selects WorkerCounts and
// TileTargets) and asserts each parallel result is bit-identical to
// its serial reference. Binary twins run against the unit-weight
// structure of A.
func ParallelEquivalence(a *csr.Matrix, b *dense.Matrix, p pattern.VNM, workers []int, targets []int64) error {
	if a.N != b.Rows {
		return fmt.Errorf("check: operand shapes disagree: A is %dx%d, B has %d rows", a.N, a.N, b.Rows)
	}
	if workers == nil {
		workers = WorkerCounts()
	}
	if targets == nil {
		targets = TileTargets()
	}
	unit := unitWeights(a)
	for _, tw := range Twins() {
		opA := a
		if tw.Binary {
			opA = unit
		}
		ref, err := tw.Serial(opA, b, p)
		if err != nil {
			return fmt.Errorf("check: twin %s serial: %w", tw.Name, err)
		}
		for _, w := range workers {
			for _, target := range targets {
				var pool *sched.Pool
				if target > 0 {
					pool = sched.NewWithTarget(w, target)
				} else {
					pool = sched.New(w)
				}
				got, err := tw.Parallel(pool, opA, b, p)
				if err != nil {
					return fmt.Errorf("check: twin %s parallel (workers=%d): %w", tw.Name, w, err)
				}
				if err := BitwiseEqual(tw.Name, w, target, got, ref); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
