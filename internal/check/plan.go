package check

import (
	"fmt"
	"time"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/predictor/cycle"
	"repro/internal/sched"
	"repro/internal/spmm"
)

// This file is the execution planner's differential layer. The planner
// (internal/plan) owes its callers two properties:
//
//  1. Selection purity — a planned dispatch computes the exact bits the
//     chosen kernel would compute when invoked directly. The planner
//     adds routing, never arithmetic (PlannerEquivalence).
//  2. Bounded regret — the kernel the calibrated planner picks is
//     never wall-clock catastrophic relative to the best static choice
//     available for the same operands (PlannerRegret).

// runClass invokes kernel class k directly through the public spmm
// entry points, bypassing the planner entirely — the reference side of
// the equivalence oracle.
func runClass(k cycle.KernelClass, pool *sched.Pool, op plan.Operands, b *dense.Matrix) *dense.Matrix {
	if k == cycle.KernelHybrid {
		return spmm.Hybrid(pool, nil, nil, op.Comp, op.Resid, b)
	}
	return spmm.CSR(pool, nil, op.A, b)
}

// PlannerEquivalence asserts plan.Execute is bit-identical to direct
// kernel invocation on A x B: at every worker count (nil selects
// WorkerCounts, {1,2,4,NumCPU}), both for the decision the calibrated
// planner actually makes and for every kernel class forced explicitly,
// with and without arena-backed outputs. Any flipped bit means the
// planner leaked arithmetic into the dispatch path.
func PlannerEquivalence(a *csr.Matrix, b *dense.Matrix, p pattern.VNM, cal *plan.Calibration, workers []int) error {
	op, err := plan.Prepare(a, p)
	if err != nil {
		return fmt.Errorf("check: planner operands: %w", err)
	}
	if workers == nil {
		workers = WorkerCounts()
	}
	var arena plan.Arena
	for _, w := range workers {
		pool := sched.New(w)
		pl := &plan.Planner{Calib: cal}
		decisions := []plan.Decision{pl.ChooseOperands(op, b.Cols)}
		for _, k := range cycle.KernelClasses() {
			decisions = append(decisions, plan.Decision{Kernel: k})
		}
		for _, d := range decisions {
			ref := runClass(d.Kernel, pool, op, b)
			heap := plan.Execute(d, pool, op, b, nil)
			if err := BitwiseEqual("planned/"+string(d.Kernel), w, d.TileTarget, heap, ref); err != nil {
				return err
			}
			reused := plan.Execute(d, pool, op, b, &arena)
			if err := BitwiseEqual("planned-arena/"+string(d.Kernel), w, d.TileTarget, reused, ref); err != nil {
				return err
			}
		}
	}
	return nil
}

// RegretError reports a planned dispatch that ran more than a bounded
// factor slower than the best static kernel on the same operands.
type RegretError struct {
	Chosen    cycle.KernelClass
	Best      cycle.KernelClass
	ChosenNs  float64
	BestNs    float64
	MaxFactor float64
}

func (e *RegretError) Error() string {
	return fmt.Sprintf("check: planner regret: chose %s (%.0f ns) but best static is %s (%.0f ns) — factor %.2f exceeds bound %.2f",
		e.Chosen, e.ChosenNs, e.Best, e.BestNs, e.ChosenNs/e.BestNs, e.MaxFactor)
}

// PlannerRegret times the calibrated planner's dispatch on A x B
// against every static kernel class (best-of-repeats, one warmup each,
// the bench methodology) and asserts the planned wall time stays
// within maxFactor of the best static kernel. The planner is allowed
// to be modestly wrong — its cost model is a handful of coefficients —
// but never catastrophically wrong.
func PlannerRegret(a *csr.Matrix, b *dense.Matrix, p pattern.VNM, cal *plan.Calibration, workers, repeats int, maxFactor float64) error {
	op, err := plan.Prepare(a, p)
	if err != nil {
		return fmt.Errorf("check: planner operands: %w", err)
	}
	if repeats < 1 {
		repeats = 3
	}
	pl := &plan.Planner{Calib: cal}
	d := pl.ChooseOperands(op, b.Cols)
	pool := sched.New(workers)
	var arena plan.Arena
	chosenNs := bestOfNs(repeats, func() { plan.Execute(d, pool, op, b, &arena) })
	best := cycle.KernelClass("")
	bestNs := 0.0
	for _, k := range cycle.KernelClasses() {
		ns := bestOfNs(repeats, func() { runClass(k, pool, op, b) })
		if best == "" || ns < bestNs {
			best, bestNs = k, ns
		}
	}
	if chosenNs > bestNs*maxFactor {
		return &RegretError{Chosen: d.Kernel, Best: best, ChosenNs: chosenNs, BestNs: bestNs, MaxFactor: maxFactor}
	}
	return nil
}

// bestOfNs returns fn's minimum wall time over repeats runs after one
// untimed warmup.
func bestOfNs(repeats int, fn func()) float64 {
	fn()
	best := time.Duration(1<<63 - 1)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds())
}
