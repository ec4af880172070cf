package distributed

import (
	"testing"
	"time"

	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/sched"
)

// mustPlan parses a fault plan the test wrote itself.
func mustPlan(t *testing.T, s string) *resil.Plan {
	t.Helper()
	p, err := resil.ParsePlan(s)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", s, err)
	}
	return p
}

// bitEqual reports whether two matrices are bit-identical.
func bitEqual(a, b *dense.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// sampledFixture builds a small labeled graph for sampled-SGC training.
func sampledFixture() (*graph.Graph, *dense.Matrix, []int, []int) {
	g := graph.Banded(300, 2, 0.9, 7)
	x := dense.NewMatrix(g.N(), 12)
	x.Randomize(1, 3)
	labels := make([]int, g.N())
	var test []int
	for i := range labels {
		labels[i] = (i / 30) % 3
		if i%5 == 0 {
			test = append(test, i)
		}
	}
	return g, x, labels, test
}

func sampledCfg(engine gnn.EngineKind) TrainSampledConfig {
	return TrainSampledConfig{
		Sampler: SamplerConfig{Seeds: 12, Fanout: []int{6, 4}, Seed: 5},
		Engine:  engine,
		Epochs:  3,
		Batches: 2,
		Seed:    9,
	}
}

// TestTrainSampledFaultsBitIdentical: sampled training under an
// injected plan (crash, transient, straggler, corrupted transfer, eval
// crash) recovers to the exact fault-free outcome: same loss bits, same
// classifier bits, same accuracy.
func TestTrainSampledFaultsBitIdentical(t *testing.T) {
	g, x, labels, test := sampledFixture()
	cfg := sampledCfg(gnn.EngineSPTC)
	ref, err := TrainSampledSGC(g, x, labels, 3, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t,
		"seed=3; crash@sample:2; transient@sample:4; straggler@sample:5:1ms; corrupt@sample/xfer:3; crash@eval:1")
	fcfg := cfg
	fcfg.Faults = FaultConfig{Inj: resil.NewInjector(plan, nil), Retry: resil.RetryPolicy{Backoff: -1}}
	got, err := TrainSampledSGC(g, x, labels, 3, test, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Losses) != len(ref.Losses) {
		t.Fatalf("epochs %d != %d", len(got.Losses), len(ref.Losses))
	}
	for i := range ref.Losses {
		if got.Losses[i] != ref.Losses[i] {
			t.Fatalf("epoch %d loss %v != fault-free %v", i, got.Losses[i], ref.Losses[i])
		}
	}
	if !bitEqual(ref.W, got.W) || !bitEqual(ref.B, got.B) {
		t.Fatal("classifier differs from fault-free run")
	}
	if got.TestAcc != ref.TestAcc {
		t.Fatalf("TestAcc %v != %v", got.TestAcc, ref.TestAcc)
	}
}

// TestTrainSampledMetaDegrade: an injected transient at "venom/meta"
// forces the per-sample SPTC→CSR degrade; training completes, the
// fallback counter records it, and the outcome stays within the
// cross-engine tolerance of the fault-free run (the degrade permutes
// summation order, so bit-identity is out of scope by design).
func TestTrainSampledMetaDegrade(t *testing.T) {
	g, x, labels, test := sampledFixture()
	cfg := sampledCfg(gnn.EngineSPTC)
	ref, err := TrainSampledSGC(g, x, labels, 3, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fcfg := cfg
	fcfg.Faults = FaultConfig{
		Inj:   resil.NewInjector(mustPlan(t, "seed=2; transient@venom/meta:2"), reg),
		Retry: resil.RetryPolicy{Backoff: -1},
	}
	got, err := TrainSampledSGC(g, x, labels, 3, test, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := reg.Snapshot().Counters["resil/fallback/sptc_to_csr"]
	if fallbacks != 1 {
		t.Fatalf("sptc_to_csr fallbacks = %d, want 1", fallbacks)
	}
	for i := range ref.Losses {
		d := ref.Losses[i] - got.Losses[i]
		if d < 0 {
			d = -d
		}
		if d > 2e-2 {
			t.Fatalf("epoch %d loss drifted by %v under degrade", i, d)
		}
	}
}

// TestTrainSampledSerialRung: a plan that exhausts every retry at the
// "sample" site pushes one sample down to the serial CSR rung; training
// still completes and the fallback is recorded.
func TestTrainSampledSerialRung(t *testing.T) {
	g, x, labels, test := sampledFixture()
	cfg := sampledCfg(gnn.EngineSPTC)
	reg := obs.NewRegistry()
	fcfg := cfg
	fcfg.Faults = FaultConfig{
		Inj:   resil.NewInjector(mustPlan(t, "seed=4; crash@sample:1; crash@sample:2"), reg),
		Retry: resil.RetryPolicy{Max: 2, Backoff: -1},
	}
	got, err := TrainSampledSGC(g, x, labels, 3, test, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Losses) != cfg.Epochs {
		t.Fatalf("training truncated: %d epochs", len(got.Losses))
	}
	serial := reg.Snapshot().Counters["resil/fallback/serial"]
	if serial != 1 {
		t.Fatalf("serial fallbacks = %d, want 1", serial)
	}
}

// TestTrainSampledSpeculation: a long injected straggler with a short
// speculation threshold completes far sooner than the injected delay by
// re-dispatching, and the result stays bit-identical (both copies
// compute the same bits).
func TestTrainSampledSpeculation(t *testing.T) {
	g, x, labels, test := sampledFixture()
	cfg := sampledCfg(gnn.EngineCSR)
	ref, err := TrainSampledSGC(g, x, labels, 3, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := cfg
	fcfg.Faults = FaultConfig{
		Inj:            resil.NewInjector(mustPlan(t, "seed=8; straggler@sample:1:30s"), nil),
		Retry:          resil.RetryPolicy{Backoff: -1},
		StragglerAfter: 20 * time.Millisecond,
	}
	done := make(chan struct{})
	var got *TrainSampledResult
	var terr error
	go func() {
		got, terr = TrainSampledSGC(g, x, labels, 3, test, fcfg)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second): // far below the 30s injected delay
		t.Fatal("speculative re-dispatch did not rescue the straggling sample")
	}
	if terr != nil {
		t.Fatal(terr)
	}
	if !bitEqual(ref.W, got.W) {
		t.Fatal("speculated run differs from fault-free run")
	}
}

// TestTrainSampledPoolInjector: a pool built WithInjector feeds tile
// crashes into the sample's kernels; the panic is contained by the
// scheduler, converted to an error by the recovery layer, and retried
// to the fault-free result.
func TestTrainSampledPoolInjector(t *testing.T) {
	g, x, labels, test := sampledFixture()
	cfg := sampledCfg(gnn.EngineCSR)
	ref, err := TrainSampledSGC(g, x, labels, 3, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj := resil.NewInjector(mustPlan(t, "seed=6; crash@tile:10"), nil)
	fcfg := cfg
	fcfg.Pool = sched.New(2).WithInjector(inj)
	fcfg.Faults = FaultConfig{Inj: inj, Retry: resil.RetryPolicy{Backoff: -1}}
	got, err := TrainSampledSGC(g, x, labels, 3, test, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(ref.W, got.W) {
		t.Fatal("tile-crash run differs from fault-free run")
	}
}

// TestNeighborSampleDegenerate: degenerate sampler inputs yield valid
// samples instead of panicking.
func TestNeighborSampleDegenerate(t *testing.T) {
	g := graph.Banded(50, 2, 0.9, 1)
	empty, err := graph.NewFromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		cfg   SamplerConfig
		wantN func(n int) bool
	}{
		{"empty graph", empty, SamplerConfig{Seeds: 5, Fanout: []int{3}}, func(n int) bool { return n == 0 }},
		{"zero seeds", g, SamplerConfig{Seeds: 0, Fanout: []int{3}}, func(n int) bool { return n == 0 }},
		{"negative seeds", g, SamplerConfig{Seeds: -2, Fanout: []int{3}}, func(n int) bool { return n == 0 }},
		{"nil fanout", g, SamplerConfig{Seeds: 4}, func(n int) bool { return n >= 1 && n <= 4 }},
		{"zero fanout", g, SamplerConfig{Seeds: 4, Fanout: []int{0, 0}}, func(n int) bool { return n >= 1 && n <= 4 }},
		{"negative fanout", g, SamplerConfig{Seeds: 4, Fanout: []int{-3}}, func(n int) bool { return n >= 1 && n <= 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NeighborSample(tc.g, tc.cfg, 0)
			if err := s.G.Validate(); err != nil {
				t.Fatalf("invalid sample graph: %v", err)
			}
			if len(s.Orig) != s.G.N() {
				t.Fatalf("orig mapping %d != N %d", len(s.Orig), s.G.N())
			}
			if !tc.wantN(s.G.N()) {
				t.Fatalf("unexpected sample size %d", s.G.N())
			}
		})
	}
}
