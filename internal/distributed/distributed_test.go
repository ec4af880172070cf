package distributed

import (
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/spmm"
)

func TestNeighborSample(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 4, 1)
	cfg := SamplerConfig{Seeds: 20, Fanout: []int{8, 4}, Seed: 3}
	s := NeighborSample(g, cfg, 0)
	if s.G.N() < 20 {
		t.Fatalf("sample too small: %d", s.G.N())
	}
	if s.G.N() > 20*(1+8+8*4) {
		t.Fatalf("sample too large: %d", s.G.N())
	}
	if err := s.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Orig) != s.G.N() {
		t.Error("orig mapping length mismatch")
	}
	// Edges in sample exist in the original graph.
	for u := 0; u < s.G.N(); u++ {
		for _, v := range s.G.Neighbors(u) {
			if !g.HasEdge(s.Orig[u], s.Orig[int(v)]) {
				t.Fatalf("sample edge (%d,%d) not in original", u, v)
			}
		}
	}
}

func TestNeighborSampleDeterministic(t *testing.T) {
	g := graph.BarabasiAlbert(500, 3, 2)
	cfg := SamplerConfig{Seeds: 10, Fanout: []int{5}, Seed: 9}
	a := NeighborSample(g, cfg, 3)
	b := NeighborSample(g, cfg, 3)
	if a.G.N() != b.G.N() || a.G.NumEdges() != b.G.NumEdges() {
		t.Error("sampling not deterministic")
	}
	c := NeighborSample(g, cfg, 4)
	if c.G.N() == a.G.N() && c.G.NumEdges() == a.G.NumEdges() {
		t.Log("different sample indices produced identical samples (possible but unlikely)")
	}
}

func TestPipelineRun(t *testing.T) {
	g := graph.Banded(3000, 3, 0.8, 5)
	cfg := PipelineConfig{
		Workers:  4,
		Samples:  4,
		Features: 32,
		Classes:  8,
		Sampler:  SamplerConfig{Seeds: 30, Fanout: []int{6, 4}, Seed: 1},
		AutoOpt:  core.AutoOptions{MaxM: 8, MaxV: 8},
	}
	res, err := Run("test-banded", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 4 {
		t.Errorf("samples = %d", res.Samples)
	}
	if res.AvgSampleSize <= 0 {
		t.Error("avg sample size missing")
	}
	if res.LYRSpeedup <= 0 || res.ALLSpeedup <= 0 {
		t.Errorf("speedups missing: %+v", res)
	}
	// End-to-end speedup is damped relative to aggregation speedup by
	// the shared dense work.
	if res.ALLSpeedup > res.LYRSpeedup*1.5 && res.LYRSpeedup > 1 {
		t.Errorf("ALL %v implausibly exceeds LYR %v", res.ALLSpeedup, res.LYRSpeedup)
	}
	if res.ReorderTime <= 0 {
		t.Error("reorder time missing")
	}
}

func TestPipelineDefaults(t *testing.T) {
	g := graph.Banded(800, 2, 0.9, 2)
	res, err := Run("defaults", g, PipelineConfig{
		Sampler: SamplerConfig{Seeds: 15, Fanout: []int{4}, Seed: 2},
		AutoOpt: core.AutoOptions{MaxM: 4, MaxV: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 8 { // Workers(4) * 2
		t.Errorf("default samples = %d, want 8", res.Samples)
	}
}

func TestPartitionedSpMMMatchesDirect(t *testing.T) {
	// Section 4.4 end-to-end: partition -> reorder each piece -> SPTC
	// SpMM per piece -> reorder back + cross-edge accumulation must
	// equal the direct global SpMM exactly.
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"banded", graph.Banded(500, 2, 0.9, 3)},
		{"er", graph.ErdosRenyi(400, 5.0/400, 4)},
		{"powerlaw", graph.BarabasiAlbert(300, 3, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := dense.NewMatrix(tc.g.N(), 9)
			b.Randomize(1, 7)
			got, results, err := PartitionedSpMM(tc.g, b, 128, pattern.NM(2, 4), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) < tc.g.N()/128 {
				t.Errorf("only %d partitions", len(results))
			}
			want := spmm.CSR(sched.Default(), nil, csr.FromGraph(tc.g), b)
			if d := dense.MaxAbsDiff(want, got); d > 1e-3 {
				t.Errorf("partitioned SpMM differs from direct by %v", d)
			}
		})
	}
}

func TestPartitionedSpMMValidation(t *testing.T) {
	g := graph.Grid2D(4, 4)
	b := dense.NewMatrix(3, 2)
	if _, _, err := PartitionedSpMM(g, b, 8, pattern.NM(2, 4), core.Options{}); err == nil {
		t.Error("want dimension error")
	}
	b2 := dense.NewMatrix(16, 2)
	if _, _, err := PartitionedSpMM(g, b2, 8, pattern.VNM{V: 1, N: 2, M: 3}, core.Options{}); err == nil {
		t.Error("want pattern error")
	}
}

func sampledTrainingSetup() (*graph.Graph, *dense.Matrix, []int, []int) {
	sizes := []int{150, 150, 150}
	g, labels := graph.SBM(sizes, 0.15, 0.005, 21)
	x := dense.NewMatrix(g.N(), 12)
	x.Randomize(1, 5)
	for i, l := range labels {
		x.Set(i, l, x.At(i, l)+1.5)
	}
	var test []int
	for i := 0; i < g.N(); i += 5 {
		test = append(test, i)
	}
	return g, x, labels, test
}

func TestTrainSampledSGCLearns(t *testing.T) {
	g, x, labels, test := sampledTrainingSetup()
	res, err := TrainSampledSGC(g, x, labels, 3, test, TrainSampledConfig{
		Sampler: SamplerConfig{Seeds: 40, Fanout: []int{6}, Seed: 3},
		Engine:  gnn.EngineCSR,
		Epochs:  15,
		Batches: 3,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAcc < 0.7 {
		t.Errorf("sampled training accuracy %.3f < 0.7 (losses %v)", res.TestAcc, res.Losses)
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Errorf("loss did not decrease: %v -> %v", res.Losses[0], res.Losses[len(res.Losses)-1])
	}
	if res.AggCycles <= 0 {
		t.Error("aggregation cycles not accounted")
	}
}

func TestTrainSampledEnginesAgree(t *testing.T) {
	// Same sampling seed, same init: the SPTC engine must land on the
	// same classifier as the CSR engine (both aggregations are exact) —
	// the losslessness claim extended through training.
	g, x, labels, test := sampledTrainingSetup()
	run := func(engine gnn.EngineKind) *TrainSampledResult {
		res, err := TrainSampledSGC(g, x, labels, 3, test, TrainSampledConfig{
			Sampler: SamplerConfig{Seeds: 30, Fanout: []int{5}, Seed: 9},
			Engine:  engine,
			AutoOpt: core.AutoOptions{MaxM: 8, MaxV: 4},
			Epochs:  6,
			Batches: 2,
			Seed:    2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(gnn.EngineCSR)
	b := run(gnn.EngineSPTC)
	if d := dense.MaxAbsDiff(a.W, b.W); d > 1e-2 {
		t.Errorf("engines diverged in weights by %v", d)
	}
	if a.TestAcc != b.TestAcc {
		t.Logf("accuracies differ slightly: %.4f vs %.4f (float ordering)", a.TestAcc, b.TestAcc)
	}
}

func TestTrainSampledValidation(t *testing.T) {
	g, x, labels, test := sampledTrainingSetup()
	if _, err := TrainSampledSGC(g, dense.NewMatrix(3, 2), labels, 3, test, TrainSampledConfig{}); err == nil {
		t.Error("want size-mismatch error")
	}
	_ = x
}
