package plan

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/pattern"
	"repro/internal/predictor/cycle"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// Operands bundles one SpMM dispatch's sparse operands: the CSR matrix
// plus (when a split exists) the V:N:M compressed half and CSR
// residual the hybrid class consumes.
type Operands struct {
	A     *csr.Matrix
	Comp  *venom.Matrix
	Resid *csr.Matrix
}

// Prepare builds planner operands from a CSR matrix: the hybrid split
// at the given pattern, with the CSR halves compacted into flat
// exact-capacity storage (csr.Compact) so planned dispatches walk
// densely packed sparse metadata. A split failure (malformed pattern)
// is an error; callers that only want the CSR class can construct
// Operands{A: a} directly.
func Prepare(a *csr.Matrix, p pattern.VNM) (Operands, error) {
	comp, resid, err := venom.SplitToConform(a, p)
	if err != nil {
		return Operands{}, fmt.Errorf("plan: prepare split: %w", err)
	}
	return Operands{A: a.Compact(), Comp: comp, Resid: resid.Compact()}, nil
}

// Profile extracts the dispatch profile the planner ranks kernels on.
func (op Operands) Profile(h int, cm sptc.CostModel) cycle.OpProfile {
	return cycle.ProfileOf(op.A, op.Comp, op.Resid, h, cm)
}

// Prediction is one kernel class's predicted wall time.
type Prediction struct {
	Kernel cycle.KernelClass
	Ns     float64
}

// Decision is the planner's choice for one dispatch, with the full
// ranking kept for introspection (bench rows, regret oracles).
type Decision struct {
	// Kernel is the chosen class.
	Kernel cycle.KernelClass
	// TileTarget is the calibrated tile-cost target the kernel should
	// run with; 0 = pool automatic.
	TileTarget int64
	// Predictions holds every eligible class's predicted ns, sorted
	// fastest first (ties broken by kernel name, so the ordering — and
	// hence the choice — is deterministic for a fixed table).
	Predictions []Prediction
}

// PredictedNs returns the predicted wall time of the chosen kernel.
func (d Decision) PredictedNs() float64 {
	if len(d.Predictions) == 0 {
		return math.Inf(1)
	}
	return d.Predictions[0].Ns
}

// Planner ranks kernel classes by predicted wall time: model cycles
// (cycle.ModelCycles) times the measured ns-per-cycle coefficient
// (Calibration). Decisions are pure functions of (profile, table): no
// timing happens at dispatch.
type Planner struct {
	// Calib is the measured coefficient table; required.
	Calib *Calibration
	// Cost is the cycle model (zero value = sptc.DefaultCostModel()).
	Cost sptc.CostModel
}

// cost returns the planner's cycle model, defaulting when unset.
func (pl *Planner) cost() sptc.CostModel {
	if pl.Cost.FragRows == 0 {
		return sptc.DefaultCostModel()
	}
	return pl.Cost
}

// PredictNs returns the predicted wall time of kernel class k on
// profile p: model cycles x calibrated ns/cycle. Returns +Inf when the
// table has no coefficient for the class or the profile cannot run it
// (the hybrid class without a split).
func (pl *Planner) PredictNs(k cycle.KernelClass, p cycle.OpProfile) float64 {
	if pl.Calib == nil {
		return math.Inf(1)
	}
	coeff, ok := pl.Calib.NsPerCycle(k)
	if !ok {
		return math.Inf(1)
	}
	cycles := cycle.ModelCycles(pl.cost(), k, p)
	if cycles <= 0 {
		return math.Inf(1)
	}
	return coeff * cycles
}

// Choose ranks every eligible kernel class on profile p and returns
// the decision. Deterministic: same profile and table always yield the
// same choice (ties break toward the lexicographically smaller kernel
// name).
func (pl *Planner) Choose(p cycle.OpProfile) Decision {
	var d Decision
	if pl.Calib != nil {
		d.TileTarget = pl.Calib.TileTarget
	}
	for _, k := range cycle.KernelClasses() {
		ns := pl.PredictNs(k, p)
		if math.IsInf(ns, 1) {
			continue
		}
		d.Predictions = append(d.Predictions, Prediction{Kernel: k, Ns: ns})
	}
	sort.SliceStable(d.Predictions, func(i, j int) bool {
		if d.Predictions[i].Ns != d.Predictions[j].Ns {
			return d.Predictions[i].Ns < d.Predictions[j].Ns
		}
		return d.Predictions[i].Kernel < d.Predictions[j].Kernel
	})
	if len(d.Predictions) == 0 {
		// Nothing calibrated: fall back to CSR, which every operand
		// supports.
		d.Kernel = cycle.KernelCSR
		return d
	}
	d.Kernel = d.Predictions[0].Kernel
	return d
}

// ChooseOperands profiles the operands at width h and plans the
// dispatch in one call.
func (pl *Planner) ChooseOperands(op Operands, h int) Decision {
	return pl.Choose(op.Profile(h, pl.cost()))
}

// Execute runs the decided kernel on the operands. pool (nil = the
// default pool) runs it, with the decision's TileTarget applied;
// arena, when non-nil, supplies the output and residual-scratch
// storage so repeated planned dispatches allocate nothing. The result
// is bitwise identical to invoking the chosen kernel directly — the
// planner adds no arithmetic, only selection — which is what
// check.PlannerEquivalence enforces.
func Execute(d Decision, pool *sched.Pool, op Operands, b *dense.Matrix, arena *Arena) *dense.Matrix {
	if pool == nil {
		pool = sched.Default()
	}
	if d.TileTarget > 0 {
		pool = pool.WithTarget(d.TileTarget)
	}
	var c, scratch *dense.Matrix
	if arena != nil {
		c = arena.out.Matrix(op.A.N, b.Cols)
	}
	if !d.Kernel.IsHybrid() {
		return spmm.CSR(pool, c, op.A, b)
	}
	if arena != nil && op.Resid != nil && op.Resid.NNZ() > 0 {
		scratch = arena.scratch.Matrix(op.Resid.N, b.Cols)
	}
	return spmm.Hybrid(pool, c, scratch, op.Comp, op.Resid, b)
}

// Arena holds the reusable output and scratch storage of a planned
// dispatch loop (dense.Arena semantics: one live result per arena).
type Arena struct {
	out     dense.Arena
	scratch dense.Arena
}
