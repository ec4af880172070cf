package distributed

import (
	"testing"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/spmm"
)

// Regression: the full-graph evaluation inside TrainSampledSGC used to
// run through a private hand-rolled CSR loop instead of the engine
// factory, so the eval hops charged nothing to the ledger (and were
// invisible to the obs registry). Routed through the factory, the eval
// aggregation is accounted like every training aggregation.
func TestSampledEvalChargedToLedger(t *testing.T) {
	g, x, labels, test := sampledTrainingSetup()
	reg := obs.NewRegistry()
	cfg := TrainSampledConfig{
		Sampler: SamplerConfig{Seeds: 40, Fanout: []int{6}, Seed: 3},
		Engine:  gnn.EngineCSR,
		Epochs:  2,
		Batches: 2,
		Seed:    1,
		Obs:     reg,
	}
	res, err := TrainSampledSGC(g, x, labels, 3, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EvalAggCycles <= 0 {
		t.Errorf("EvalAggCycles = %v, want > 0 (eval hops unaccounted)", res.EvalAggCycles)
	}
	if res.AggCycles <= res.EvalAggCycles {
		t.Errorf("AggCycles = %v must exceed the eval slice %v (training hops missing)",
			res.AggCycles, res.EvalAggCycles)
	}
	snap := reg.Snapshot()
	// 2 hops (the default) per batch, 2 batches x 2 epochs of training,
	// plus 2 eval hops — every one must have gone through the
	// instrumented kernel dispatch, not a private loop.
	const hops = 2
	wantDispatch := int64(cfg.Epochs*cfg.Batches*hops + hops)
	if got := snap.Counters["spmm/dispatch/csr"]; got != wantDispatch {
		t.Errorf("spmm/dispatch/csr = %d, want %d", got, wantDispatch)
	}
	if got := snap.Gauges["gnn/agg_cycles"]; got != res.AggCycles {
		t.Errorf("obs gnn/agg_cycles = %v, want ledger total %v", got, res.AggCycles)
	}
}

// The factory-routed evaluation must be numerically identical to the
// serial CSR reference it replaced: recompute the eval forward pass
// with spmm.CSR on a pool of one and the returned classifier, and
// require the bitwise-same accuracy.
func TestSampledEvalBitwiseMatchesSerialReference(t *testing.T) {
	g, x, labels, test := sampledTrainingSetup()
	cfg := TrainSampledConfig{
		Sampler: SamplerConfig{Seeds: 40, Fanout: []int{6}, Seed: 3},
		Engine:  gnn.EngineCSR,
		Epochs:  3,
		Batches: 2,
		Seed:    1,
	}
	res, err := TrainSampledSGC(g, x, labels, 3, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := csr.SymNormalized(g)
	h := x
	for i := 0; i < 2; i++ { // cfg.Hops defaulted to 2
		h = spmm.CSR(sched.Serial(), nil, full, h)
	}
	logits := dense.MatMul(h, res.W)
	logits.AddBias(res.B.Row(0))
	want := dense.Accuracy(logits, labels, test)
	if res.TestAcc != want {
		t.Errorf("TestAcc = %v, want bitwise %v from the serial CSR reference", res.TestAcc, want)
	}
}

// For a fixed engine and seed the whole sampled run — losses, weights,
// accuracy — is bit-identical at every worker count: the kernels are
// bit-deterministic and the pool only changes wall time (DESIGN.md §7).
func TestSampledTrainingBitwiseAcrossWorkerCounts(t *testing.T) {
	g, x, labels, test := sampledTrainingSetup()
	run := func(pool *sched.Pool) *TrainSampledResult {
		res, err := TrainSampledSGC(g, x, labels, 3, test, TrainSampledConfig{
			Sampler: SamplerConfig{Seeds: 40, Fanout: []int{6}, Seed: 3},
			Engine:  gnn.EngineCSR,
			Epochs:  3,
			Batches: 2,
			Seed:    1,
			Pool:    pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(sched.Serial())
	for _, workers := range []int{2, 4} {
		got := run(sched.New(workers))
		if got.TestAcc != ref.TestAcc {
			t.Errorf("workers=%d TestAcc %v != serial %v", workers, got.TestAcc, ref.TestAcc)
		}
		for i := range ref.Losses {
			if got.Losses[i] != ref.Losses[i] {
				t.Fatalf("workers=%d epoch %d loss %v != serial %v", workers, i, got.Losses[i], ref.Losses[i])
			}
		}
		if dense.MaxAbsDiff(got.W, ref.W) != 0 || dense.MaxAbsDiff(got.B, ref.B) != 0 {
			t.Errorf("workers=%d weights differ from serial run", workers)
		}
	}
}
