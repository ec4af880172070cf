package cycle_test

import (
	"testing"
	"time"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/predictor/cycle"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// bestNs is the bench timing methodology: best of repeats after one
// untimed warmup.
func bestNs(repeats int, fn func()) float64 {
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

// TestCalibratedOrderingMatchesMeasured is the differential test
// between the two halves of the planner's cost estimate. It documents
// the er-8k inversion from BENCH_spmm.json: on a uniform-random graph
// the raw cycle model prefers the V:N:M/SPTC hybrid over CSR (it
// models sparse-tensor-core throughput, ~3 flop/cycle vs 1), but this
// host's measured wall clock can disagree — a CPU has no sparse tensor
// cores, so the hybrid's modeled advantage does not materialize. The
// calibrated predictor (model cycles x measured ns/cycle) must side
// with the measurement, whichever way it falls on this machine.
func TestCalibratedOrderingMatchesMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock differential skipped in -short mode")
	}
	const (
		n       = 2048
		deg     = 8
		h       = 64
		seed    = 808
		repeats = 5
	)
	g := graph.ErdosRenyi(n, float64(deg)/n, seed)
	a := csr.FromGraph(g).Compact()
	comp, resid, err := venom.SplitToConform(a, pattern.New(4, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	resid = resid.Compact()
	b := dense.NewMatrix(a.N, h)
	b.Randomize(1, seed+1)
	cm := sptc.DefaultCostModel()
	prof := cycle.ProfileOf(a, comp, resid, h, cm)

	// Half 1: the raw cycle model. On the er regime it must prefer the
	// hybrid — this is the modeled-GPU side of the inversion, and it is
	// deterministic.
	csrCycles := cycle.ModelCycles(cm, cycle.KernelCSR, prof)
	hybCycles := cycle.ModelCycles(cm, cycle.KernelHybrid, prof)
	if hybCycles >= csrCycles {
		t.Fatalf("cycle model no longer prefers hybrid on er (csr=%v, hybrid=%v); the inversion premise is gone", csrCycles, hybCycles)
	}

	// Half 2: this machine's wall clock, measured the way bench does.
	var outA, scratchA dense.Arena
	c := outA.Matrix(a.N, h)
	s := scratchA.Matrix(a.N, h)
	pool := sched.Serial()
	csrNs := bestNs(repeats, func() { spmm.CSR(pool, c, a, b) })
	hybNs := bestNs(repeats, func() { spmm.Hybrid(pool, c, s, comp, resid, b) })
	if csrNs < hybNs {
		t.Logf("er inversion present on this host: measured csr %.0fns < hybrid %.0fns despite model cycles %v > %v",
			csrNs, hybNs, csrCycles, hybCycles)
	}

	// The calibrated predictor must rank the pair the same way the
	// measurement does.
	cal, err := plan.Measure(plan.MeasureConfig{Seed: seed, Workers: 1, Repeats: repeats, ProbeN: n, ProbeDegree: deg, ProbeH: h})
	if err != nil {
		t.Fatal(err)
	}
	pl := &plan.Planner{Calib: cal}
	predCSR := pl.PredictNs(cycle.KernelCSR, prof)
	predHyb := pl.PredictNs(cycle.KernelHybrid, prof)
	if (predCSR < predHyb) != (csrNs < hybNs) {
		t.Fatalf("calibrated ordering disagrees with measurement: predicted csr=%.0f hybrid=%.0f, measured csr=%.0f hybrid=%.0f",
			predCSR, predHyb, csrNs, hybNs)
	}
	// And the resulting decision is the measured winner.
	d := pl.Choose(prof)
	want := cycle.KernelCSR
	if hybNs < csrNs {
		want = cycle.KernelHybrid
	}
	if d.Kernel != want {
		t.Fatalf("planner chose %s, measured winner is %s (predictions %+v)", d.Kernel, want, d.Predictions)
	}
}
