package distributed

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sptc"
)

// TrainSampledConfig controls sampled (mini-batch) SGC training — the
// standard large-graph GNN practice the paper's Section 4.4 builds on:
// every step trains on a neighbor-sampled subgraph; the revised
// pipeline additionally reorders each sample offline so its
// aggregation runs on the SPTC engine.
type TrainSampledConfig struct {
	Sampler  SamplerConfig
	Engine   gnn.EngineKind
	AutoOpt  core.AutoOptions // used by the SPTC engine per sample
	Hops     int              // SGC propagation steps (default 2)
	Epochs   int              // default 20
	Batches  int              // samples per epoch (default 4)
	LR       float32          // default 0.05
	Seed     int64
	Features int // inferred from x if zero
	// Pool is the execution engine every aggregation — sampled batches
	// and the full-graph evaluation alike — runs on; nil means the
	// default GOMAXPROCS-sized pool. The tiled kernels are
	// bit-deterministic, so the worker count never changes results
	// (DESIGN.md §7).
	Pool *sched.Pool
	// Obs, when set, charges the run's observability registry: the
	// ledger mirror (gnn/agg_cycles, gnn/agg_calls) plus the kernel
	// dispatch counters recorded by the sched/spmm layers.
	Obs *obs.Registry
	// Faults engages the fault-injection and recovery layer (sites
	// "sample", "sample/xfer", "venom/meta", "eval"); the zero value is
	// the unguarded fast path.
	Faults FaultConfig
}

// TrainSampledResult reports a sampled training run.
type TrainSampledResult struct {
	TestAcc   float64
	Losses    []float64
	AggCycles float64 // total aggregation cycles, training and eval
	// EvalAggCycles is the slice of AggCycles charged by the full-graph
	// evaluation pass. The evaluation used to run through a private CSR
	// loop that bypassed the engine factory, so these cycles were
	// silently dropped from the ledger; routed through the factory they
	// are accounted like every other aggregation.
	EvalAggCycles float64
	W             *dense.Matrix
	B             *dense.Matrix
}

// TrainSampledSGC trains a single shared SGC classifier over
// neighbor-sampled subgraphs of a large graph. With Engine ==
// EngineSPTC, each sample is SOGRE-reordered before its aggregations
// run on the compressed path. For a fixed engine and sampling seed the
// run is bit-identical at every worker count (the kernels are
// bit-deterministic, DESIGN.md §7). Across engines the reordering
// permutes float summation order, so CSR and SPTC runs agree to a
// tight tolerance rather than bitwise — the losslessness claim is
// about the values aggregated, not the order they are added in.
func TrainSampledSGC(g *graph.Graph, x *dense.Matrix, labels []int, classes int, test []int, cfg TrainSampledConfig) (*TrainSampledResult, error) {
	if x.Rows != g.N() || len(labels) != g.N() {
		return nil, fmt.Errorf("distributed: features/labels size mismatch")
	}
	if cfg.Hops <= 0 {
		cfg.Hops = 2
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 20
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 4
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.05
	}
	feats := x.Cols
	res := &TrainSampledResult{
		W: dense.NewMatrix(feats, classes),
		B: dense.NewMatrix(1, classes),
	}
	res.W.Randomize(0.2, cfg.Seed+1)
	opt := dense.NewAdam(cfg.LR)
	ledger := &gnn.Ledger{Obs: cfg.Obs}
	sampleIdx := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochLoss float64
		for b := 0; b < cfg.Batches; b++ {
			s := NeighborSample(g, cfg.Sampler, sampleIdx)
			sampleIdx++
			prop, err := propagateProtected(s, g, x, cfg, ledger)
			if err != nil {
				return nil, err
			}
			// Local labels and a full train mask over the sample.
			localLabels := make([]int, s.G.N())
			idx := make([]int, s.G.N())
			for i, orig := range s.Orig {
				localLabels[i] = labels[orig]
				idx[i] = i
			}
			logits := dense.MatMul(prop, res.W)
			logits.AddBias(res.B.Row(0))
			probs := logits.Clone()
			dense.SoftmaxRows(probs)
			loss, grad := dense.CrossEntropy(probs, localLabels, idx)
			epochLoss += loss
			dW := dense.MatMul(dense.Transpose(prop), grad)
			dB := dense.NewMatrix(1, classes)
			for i := 0; i < grad.Rows; i++ {
				r := grad.Row(i)
				for j, v := range r {
					dB.Data[j] += v
				}
			}
			opt.Step([]*dense.Matrix{res.W, res.B}, []*dense.Matrix{dW, dB})
		}
		res.Losses = append(res.Losses, epochLoss/float64(cfg.Batches))
	}
	// Full-graph evaluation with the shared classifier, routed through
	// the same engine factory as the training aggregations so the
	// ledger (and the obs registry behind it) sees the eval hops too —
	// a hand-rolled CSR loop here used to leave them unaccounted.
	preEval := ledger.AggCycles
	var h *dense.Matrix
	if cfg.Faults.enabled() {
		pool := cfg.Pool
		if pool != nil {
			pool = pool.WithObs(nil)
		}
		hp, err := evalProtected(g, x, cfg, ledger, func(local *gnn.Ledger) (gnn.Operator, error) {
			f := &gnn.Factory{Kind: gnn.EngineCSR, Cost: sptc.DefaultCostModel(), Ledger: local, Pool: pool}
			return f.Make(csr.SymNormalized(g))
		})
		if err != nil {
			return nil, err
		}
		h = hp
	} else {
		evalFactory := &gnn.Factory{Kind: gnn.EngineCSR, Cost: sptc.DefaultCostModel(), Ledger: ledger, Pool: cfg.Pool}
		evalOp, err := evalFactory.Make(csr.SymNormalized(g))
		if err != nil {
			return nil, err
		}
		h = x
		for i := 0; i < cfg.Hops; i++ {
			h = evalOp.Mul(h)
		}
	}
	res.EvalAggCycles = ledger.AggCycles - preEval
	res.AggCycles = ledger.AggCycles
	logits := dense.MatMul(h, res.W)
	logits.AddBias(res.B.Row(0))
	res.TestAcc = dense.Accuracy(logits, labels, test)
	return res, nil
}

// propagateSample computes Â^hops X over one sample through the
// configured engine.
func propagateSample(s Sample, g *graph.Graph, x *dense.Matrix, cfg TrainSampledConfig, ledger *gnn.Ledger) (*dense.Matrix, error) {
	sub := s.G
	orig := s.Orig
	if cfg.Engine == gnn.EngineSPTC {
		bm := sub.ToBitMatrix()
		for i := 0; i < bm.N(); i++ {
			bm.Set(i, i)
		}
		auto, err := core.AutoReorder(bm, cfg.AutoOpt)
		if err != nil {
			return nil, err
		}
		subR, err := sub.ApplyPermutation(auto.Best.Perm)
		if err != nil {
			return nil, err
		}
		// Gather features in reordered order.
		lx := dense.NewMatrix(sub.N(), x.Cols)
		for j := 0; j < sub.N(); j++ {
			copy(lx.Row(j), x.Row(orig[auto.Best.Perm[j]]))
		}
		factory := &gnn.Factory{Kind: gnn.EngineSPTC, Pattern: auto.Best.Pattern, Cost: sptc.DefaultCostModel(), Ledger: ledger, Pool: cfg.Pool}
		op, err := factory.Make(csr.SymNormalized(subR))
		if err != nil {
			return nil, err
		}
		if fc := cfg.Faults; fc.enabled() {
			// Degradation rung 1 (DESIGN.md §10): validate the V:N:M
			// metadata the SPTC would load — an injected transient at
			// "venom/meta" models the hardware rejecting the fragment —
			// and fall back to the CSR engine for this sample on failure.
			verr := fc.Inj.Begin("venom/meta")
			if verr == nil {
				verr = gnn.ValidateOperator(op)
			}
			if verr != nil {
				fc.Inj.Obs().Counter("resil/fallback/sptc_to_csr").Inc()
				return propagateCSR(s, x, cfg, ledger)
			}
		}
		h := lx
		for i := 0; i < cfg.Hops; i++ {
			h = op.Mul(h)
		}
		// Scatter back to the sample's local order so labels align.
		out := dense.NewMatrix(sub.N(), x.Cols)
		for j := 0; j < sub.N(); j++ {
			copy(out.Row(auto.Best.Perm[j]), h.Row(j))
		}
		return out, nil
	}
	return propagateCSR(s, x, cfg, ledger)
}

// propagateCSR computes Â^hops X over one sample on the CSR engine —
// the baseline path, and the target of the SPTC→CSR degradation rung.
func propagateCSR(s Sample, x *dense.Matrix, cfg TrainSampledConfig, ledger *gnn.Ledger) (*dense.Matrix, error) {
	sub := s.G
	lx := dense.NewMatrix(sub.N(), x.Cols)
	for j, o := range s.Orig {
		copy(lx.Row(j), x.Row(o))
	}
	factory := &gnn.Factory{Kind: gnn.EngineCSR, Cost: sptc.DefaultCostModel(), Ledger: ledger, Pool: cfg.Pool}
	op, err := factory.Make(csr.SymNormalized(sub))
	if err != nil {
		return nil, err
	}
	h := lx
	for i := 0; i < cfg.Hops; i++ {
		h = op.Mul(h)
	}
	return h, nil
}
