// Package gnn implements the four GNN models the paper evaluates —
// GCN, GraphSAGE, ChebNet and SGC — with full-batch forward, manual
// backward, and training, on top of a pluggable aggregation backend:
// CUDA-core CSR SpMM (the PyG/DGL default) or sparse-tensor-core V:N:M
// SpMM (the revised, Spatha-backed path the paper enables through
// reordering). Both backends produce bit-identical aggregation results;
// they differ only in execution cost, which each records in a Ledger.
package gnn

import (
	"time"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/predictor/cycle"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// Ledger accumulates the execution accounting of one engine run:
// measured wall time and modeled GPU cycles, split between sparse
// aggregation and dense (linear-layer) work. "LYR" speedups in the
// paper compare AggCycles; "ALL" compares the totals.
//
// The flat fields remain the quick-access accounting every experiment
// reads; setting Obs additionally mirrors every charge into the
// hierarchical observability registry (gauges gnn/agg_cycles,
// gnn/dense_cycles, counters gnn/agg_calls, volatile wall-clock
// tallies), which subsumes the ledger in the internal/obs layer.
// Charges happen on the training goroutine, so the mirrored gauge
// accumulation order — and therefore the snapshot — is deterministic.
type Ledger struct {
	AggCycles   float64
	AggWall     time.Duration
	AggCalls    int
	DenseCycles float64
	DenseWall   time.Duration
	DenseCalls  int

	Obs *obs.Registry
}

// chargeAgg books one sparse-aggregation execution.
func (l *Ledger) chargeAgg(cycles float64, wall time.Duration) {
	l.AggCycles += cycles
	l.AggWall += wall
	l.AggCalls++
	if l.Obs != nil {
		l.Obs.Gauge("gnn/agg_cycles").Add(cycles)
		l.Obs.Counter("gnn/agg_calls").Inc()
		l.Obs.Volatile("gnn/agg_wall_ns").Add(wall.Nanoseconds())
	}
}

// chargeDense books one dense (linear-layer) execution.
func (l *Ledger) chargeDense(cycles float64, wall time.Duration) {
	l.DenseCycles += cycles
	l.DenseWall += wall
	l.DenseCalls++
	if l.Obs != nil {
		l.Obs.Gauge("gnn/dense_cycles").Add(cycles)
		l.Obs.Counter("gnn/dense_calls").Inc()
		l.Obs.Volatile("gnn/dense_wall_ns").Add(wall.Nanoseconds())
	}
}

// Total returns modeled end-to-end cycles.
func (l *Ledger) Total() float64 { return l.AggCycles + l.DenseCycles }

// Reset zeroes the ledger.
func (l *Ledger) Reset() { *l = Ledger{} }

// Add merges another ledger into this one.
func (l *Ledger) Add(o *Ledger) {
	l.AggCycles += o.AggCycles
	l.AggWall += o.AggWall
	l.AggCalls += o.AggCalls
	l.DenseCycles += o.DenseCycles
	l.DenseWall += o.DenseWall
	l.DenseCalls += o.DenseCalls
}

// Merge folds a per-attempt local ledger into l and mirrors the merged
// charges into l.Obs. The recovery layer runs every fault-protected
// attempt against a private ledger with no registry and merges only the
// winning attempt's, so retried or speculatively duplicated work never
// reaches the deterministic observability snapshot — the merged charges
// are those of exactly one successful execution.
func (l *Ledger) Merge(o *Ledger) {
	l.Add(o)
	if l.Obs == nil {
		return
	}
	l.Obs.Gauge("gnn/agg_cycles").Add(o.AggCycles)
	l.Obs.Counter("gnn/agg_calls").Add(int64(o.AggCalls))
	l.Obs.Volatile("gnn/agg_wall_ns").Add(o.AggWall.Nanoseconds())
	l.Obs.Gauge("gnn/dense_cycles").Add(o.DenseCycles)
	l.Obs.Counter("gnn/dense_calls").Add(int64(o.DenseCalls))
	l.Obs.Volatile("gnn/dense_wall_ns").Add(o.DenseWall.Nanoseconds())
}

// Operator is a sparse aggregation operator (a normalized adjacency
// matrix in some execution format): Mul computes Âx, MulT computes Âᵀx.
type Operator interface {
	Mul(x *dense.Matrix) *dense.Matrix
	MulT(x *dense.Matrix) *dense.Matrix
	N() int
}

// EngineKind selects the aggregation execution engine.
type EngineKind int

const (
	// EngineCSR is the CUDA-core CSR SpMM path (cuSPARSE / default
	// PyG and DGL).
	EngineCSR EngineKind = iota
	// EngineSPTC is the sparse-tensor-core V:N:M path (Spatha /
	// revised frameworks). Requires (or splits around) pattern
	// conformity.
	EngineSPTC
	// EngineAuto routes every aggregation through the execution
	// planner (internal/plan): each dispatch runs the kernel class the
	// calibrated cost model predicts fastest for that operand profile
	// and dense width. A planned dispatch is bit-identical to invoking
	// the chosen kernel class directly (check.PlannerEquivalence);
	// across classes results agree to the usual exact-arithmetic
	// tolerance, same as EngineCSR vs EngineSPTC.
	EngineAuto
)

func (k EngineKind) String() string {
	switch k {
	case EngineSPTC:
		return "sptc"
	case EngineAuto:
		return "auto"
	}
	return "csr"
}

// Factory builds Operators for a chosen engine, pattern and cost
// model, all charging the same Ledger.
type Factory struct {
	Kind    EngineKind
	Pattern pattern.VNM // used by EngineSPTC
	Cost    sptc.CostModel
	Ledger  *Ledger
	// Pool is the scheduler pool aggregation kernels execute on; nil
	// means the default GOMAXPROCS-sized pool. Because the tiled
	// kernels are bit-deterministic, the pool choice never changes
	// results — only wall time. sched.Serial() runs every kernel
	// inline on the caller, a pool of one (the convergence regression
	// tests rely on this).
	Pool *sched.Pool
	// Calib is the measured coefficient table EngineAuto plans with; a
	// nil table makes the planner fall back to the CSR kernel on every
	// dispatch (planning disabled, results unchanged).
	Calib *plan.Calibration
}

// NewFactory returns a Factory with the default cost model and a fresh
// ledger.
func NewFactory(kind EngineKind, p pattern.VNM) *Factory {
	return &Factory{Kind: kind, Pattern: p, Cost: sptc.DefaultCostModel(), Ledger: &Ledger{}}
}

// Make wraps the weighted operator matrix w for this factory's engine.
func (f *Factory) Make(w *csr.Matrix) (Operator, error) {
	pool := f.Pool
	if pool == nil {
		pool = sched.Default()
	}
	if f.Ledger != nil && f.Ledger.Obs != nil && pool.Obs() == nil {
		// One wiring point instruments the whole stack: the pool carries
		// the registry down into the sched/spmm layers.
		pool = pool.WithObs(f.Ledger.Obs)
	}
	switch f.Kind {
	case EngineSPTC:
		return newSPTCOperator(w, f.Pattern, f.Cost, f.Ledger, pool)
	case EngineAuto:
		return newPlannedOperator(w, f.Pattern, f.Cost, f.Ledger, pool, f.Calib), nil
	default:
		return &csrOperator{w: w, wt: w.Transpose(), cost: f.Cost, ledger: f.Ledger, pool: pool}, nil
	}
}

// ValidateOperator checks the structural invariants of an operator's
// compressed representation — the metadata checks the SPTC hardware
// performs when loading sparse fragments (venom.ValidateMeta over the
// forward and transposed operands). Operators without a compressed
// representation (the CSR engine) trivially validate. The distributed
// layer runs this before using a freshly built SPTC operator and
// degrades the sample to the CSR path on failure (DESIGN.md §10).
func ValidateOperator(op Operator) error {
	o, ok := op.(*sptcOperator)
	if !ok {
		return nil
	}
	if err := o.comp.ValidateMeta(); err != nil {
		return err
	}
	if err := o.compT.ValidateMeta(); err != nil {
		return err
	}
	return nil
}

// csrOperator runs aggregation through the CUDA-core CSR kernel.
type csrOperator struct {
	w, wt  *csr.Matrix
	cost   sptc.CostModel
	ledger *Ledger
	pool   *sched.Pool
}

func (o *csrOperator) N() int { return o.w.N }

func (o *csrOperator) Mul(x *dense.Matrix) *dense.Matrix  { return o.run(o.w, x) }
func (o *csrOperator) MulT(x *dense.Matrix) *dense.Matrix { return o.run(o.wt, x) }

func (o *csrOperator) run(w *csr.Matrix, x *dense.Matrix) *dense.Matrix {
	start := time.Now()
	out := spmm.CSR(o.pool, nil, w, x)
	cycles := o.cost.CSRSpMMCycles(w.NNZ(), w.N, x.Cols)
	o.ledger.chargeAgg(cycles, time.Since(start))
	o.ledger.Obs.Gauge("sptc/cycles/csr").Add(cycles)
	return out
}

// sptcOperator runs aggregation through the V:N:M SPTC kernel, with a
// (normally empty) CSR residual for entries outside the pattern.
type sptcOperator struct {
	comp, compT *venom.Matrix
	res, resT   *csr.Matrix
	cost        sptc.CostModel
	ledger      *Ledger
	pool        *sched.Pool
	n           int
}

func newSPTCOperator(w *csr.Matrix, p pattern.VNM, cost sptc.CostModel, ledger *Ledger, pool *sched.Pool) (*sptcOperator, error) {
	comp, res, err := venom.SplitToConform(w, p)
	if err != nil {
		return nil, err
	}
	wt := w.Transpose()
	compT, resT, err := venom.SplitToConform(wt, p)
	if err != nil {
		return nil, err
	}
	return &sptcOperator{
		comp: comp, compT: compT,
		res: res, resT: resT,
		cost: cost, ledger: ledger, pool: pool, n: w.N,
	}, nil
}

// ResidualNNZ reports how many entries fell outside the pattern (zero
// after a successful SOGRE reorder).
func (o *sptcOperator) ResidualNNZ() int { return o.res.NNZ() }

func (o *sptcOperator) N() int { return o.n }

func (o *sptcOperator) Mul(x *dense.Matrix) *dense.Matrix {
	return o.run(o.comp, o.res, x)
}

func (o *sptcOperator) MulT(x *dense.Matrix) *dense.Matrix {
	return o.run(o.compT, o.resT, x)
}

func (o *sptcOperator) run(comp *venom.Matrix, res *csr.Matrix, x *dense.Matrix) *dense.Matrix {
	start := time.Now()
	out := spmm.Hybrid(o.pool, nil, nil, comp, res, x)
	detail := o.cost.VNMSpMMCyclesDetail(sptc.Stats(comp, o.cost), x.Cols)
	cycles := detail.Total()
	var residCycles float64
	if res.NNZ() > 0 {
		residCycles = o.cost.CSRSpMMCycles(res.NNZ(), res.N, x.Cols)
		cycles += residCycles
	}
	o.ledger.chargeAgg(cycles, time.Since(start))
	if r := o.ledger.Obs; r != nil {
		// Modeled cycles per instruction class — pure functions of the
		// operands, so deterministic snapshot fields.
		r.Gauge("sptc/cycles/mma_compute").Add(detail.MMACompute)
		r.Gauge("sptc/cycles/b_load").Add(detail.BLoad)
		r.Gauge("sptc/cycles/frag_overhead").Add(detail.FragOverhead)
		r.Gauge("sptc/cycles/csr_residual").Add(residCycles)
	}
	return out
}

// plannedOperator runs aggregation through the execution planner: at
// each Mul/MulT it asks the calibrated planner for the fastest kernel
// class at the current dense width and dispatches accordingly.
// Decisions are cached per width (profiles are width-dependent but
// operand-stable), so steady-state training plans each layer once.
type plannedOperator struct {
	fwd, bwd plan.Operands
	planner  *plan.Planner
	cost     sptc.CostModel
	ledger   *Ledger
	pool     *sched.Pool
	n        int
	// cached decisions and model cycles, keyed by dense width; two maps
	// per direction because the transposed operands profile differently.
	fwdPlans, bwdPlans map[int]plannedDispatch
}

type plannedDispatch struct {
	d      plan.Decision
	cycles float64
}

// newPlannedOperator prepares planner operands for the forward and
// transposed matrices. A split failure (malformed pattern) degrades
// that direction to CSR-only operands — the planner then simply never
// ranks the hybrid classes — instead of failing the factory.
func newPlannedOperator(w *csr.Matrix, p pattern.VNM, cost sptc.CostModel, ledger *Ledger, pool *sched.Pool, cal *plan.Calibration) *plannedOperator {
	wt := w.Transpose()
	fwd, err := plan.Prepare(w, p)
	if err != nil {
		fwd = plan.Operands{A: w.Compact()}
	}
	bwd, err := plan.Prepare(wt, p)
	if err != nil {
		bwd = plan.Operands{A: wt.Compact()}
	}
	return &plannedOperator{
		fwd: fwd, bwd: bwd,
		planner: &plan.Planner{Calib: cal, Cost: cost},
		cost:    cost, ledger: ledger, pool: pool, n: w.N,
		fwdPlans: map[int]plannedDispatch{}, bwdPlans: map[int]plannedDispatch{},
	}
}

func (o *plannedOperator) N() int { return o.n }

func (o *plannedOperator) Mul(x *dense.Matrix) *dense.Matrix {
	return o.run(o.fwd, o.fwdPlans, x)
}

func (o *plannedOperator) MulT(x *dense.Matrix) *dense.Matrix {
	return o.run(o.bwd, o.bwdPlans, x)
}

func (o *plannedOperator) run(op plan.Operands, cache map[int]plannedDispatch, x *dense.Matrix) *dense.Matrix {
	pd, ok := cache[x.Cols]
	if !ok {
		prof := op.Profile(x.Cols, o.cost)
		pd.d = o.planner.Choose(prof)
		pd.cycles = cycle.ModelCycles(o.cost, pd.d.Kernel, prof)
		cache[x.Cols] = pd
	}
	start := time.Now()
	out := plan.Execute(pd.d, o.pool, op, x, nil)
	o.ledger.chargeAgg(pd.cycles, time.Since(start))
	if r := o.ledger.Obs; r != nil {
		r.Counter("plan/choice/" + string(pd.d.Kernel)).Inc()
		r.Gauge("plan/cycles/" + string(pd.d.Kernel)).Add(pd.cycles)
	}
	return out
}

// timedMatMul performs a dense matmul while charging the ledger with
// the dense-engine cost (identical for both settings — linear layers
// run on the same dense units either way).
func timedMatMul(l *Ledger, a, b *dense.Matrix) *dense.Matrix {
	start := time.Now()
	out := dense.MatMul(a, b)
	// Dense cost: one FMA per (i, k, j) triple on tensor cores.
	cm := sptc.DefaultCostModel()
	l.chargeDense(float64(a.Rows)*float64(a.Cols)*float64(b.Cols)*cm.DenseTCElemCost, time.Since(start))
	return out
}
