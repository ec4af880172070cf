package spmm

import (
	"fmt"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// The Plan API mirrors the cusparseLt / Spatha workflow the paper's
// revised frameworks integrate against (Section 4.5): describe the
// matmul once, compress the sparse operand into the SPTC-required form
// with its metadata, then execute repeatedly against changing dense
// operands — the "drop-in replacement of the SpMM kernels in existing
// frameworks".

// Plan is a prepared sparse x dense matmul: the compressed A operand,
// its execution statistics, the cost model, and the pool its
// executions run on.
type Plan struct {
	pattern pattern.VNM
	comp    *venom.Matrix
	resid   *csr.Matrix
	cost    sptc.CostModel
	stats   sptc.VNMStats
	pool    *sched.Pool
	execs   int
	cycles  float64
}

// NewPlan compresses the sparse operand for SPTC execution. Strict
// mode (hybrid = false) requires the matrix to conform to the pattern
// and fails with the violation otherwise — the behaviour of
// cusparseLt's compression. With hybrid = true, non-conforming entries
// fall into a CSR residual executed on the CUDA-core path (lossless).
// Every Execute runs the Hybrid kernel on pool.
func NewPlan(pool *sched.Pool, a *csr.Matrix, p pattern.VNM, cm sptc.CostModel, hybrid bool) (*Plan, error) {
	if cm.FragRows == 0 {
		cm = sptc.DefaultCostModel()
	}
	var comp *venom.Matrix
	var resid *csr.Matrix
	var err error
	if hybrid {
		comp, resid, err = venom.SplitToConform(a, p)
	} else {
		comp, err = venom.Compress(a, p)
	}
	if err != nil {
		return nil, err
	}
	if err := comp.ValidateMeta(); err != nil {
		return nil, fmt.Errorf("spmm: compressed operand invalid: %w", err)
	}
	return &Plan{
		pattern: p,
		comp:    comp,
		resid:   resid,
		cost:    cm,
		stats:   sptc.Stats(comp, cm),
		pool:    pool,
	}, nil
}

// Pattern returns the plan's V:N:M pattern.
func (p *Plan) Pattern() pattern.VNM { return p.pattern }

// Compressed exposes the compressed operand.
func (p *Plan) Compressed() *venom.Matrix { return p.comp }

// ResidualNNZ reports entries outside the pattern (0 in strict mode or
// after a successful reorder).
func (p *Plan) ResidualNNZ() int {
	if p.resid == nil {
		return 0
	}
	return p.resid.NNZ()
}

// EstimateCycles predicts the SPTC cost of one execution against an
// h-column dense operand.
func (p *Plan) EstimateCycles(h int) float64 {
	c := p.cost.VNMSpMMCycles(p.stats, h)
	if p.resid != nil && p.resid.NNZ() > 0 {
		c += p.cost.CSRSpMMCycles(p.resid.NNZ(), p.resid.N, h)
	}
	return c
}

// Execute computes C = A x B through the plan with the Hybrid kernel
// (the software analog of the mma.sp kernel launch), accumulating the
// modeled cycle count.
func (p *Plan) Execute(b *dense.Matrix) (*dense.Matrix, error) {
	if b.Rows != p.comp.N {
		return nil, fmt.Errorf("spmm: B has %d rows, want %d", b.Rows, p.comp.N)
	}
	out := Hybrid(p.pool, nil, nil, p.comp, p.resid, b)
	p.execs++
	p.cycles += p.EstimateCycles(b.Cols)
	return out, nil
}

// Executions returns how many times the plan ran.
func (p *Plan) Executions() int { return p.execs }

// AccumulatedCycles returns total modeled cycles across executions.
func (p *Plan) AccumulatedCycles() float64 { return p.cycles }
