package predictor

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/pattern"
)

func TestExtractFeatureRanges(t *testing.T) {
	g := graph.Banded(256, 3, 0.8, 1)
	f := Extract(g)
	if f[0] != 8 {
		t.Errorf("log2 n = %v, want 8", f[0])
	}
	if f[1] >= 0 {
		t.Errorf("log density = %v, want negative", f[1])
	}
	if f[2] <= 0 {
		t.Error("avg degree missing")
	}
	if f[6] > 0.1 {
		t.Errorf("banded locality = %v, want small", f[6])
	}
	// Scrambling destroys locality.
	scrambled := graph.ErdosRenyi(256, 6.0/256, 2)
	fs := Extract(scrambled)
	if fs[6] <= f[6] {
		t.Errorf("random locality %v should exceed banded %v", fs[6], f[6])
	}
	// Empty graph is safe.
	empty, _ := graph.NewFromEdges(0, nil)
	_ = Extract(empty)
}

func TestDuplicateRowFeature(t *testing.T) {
	base := graph.Banded(16, 1, 1.0, 1)
	blown := graph.Blowup(base, 8)
	f := Extract(blown)
	if f[7] < 0.9 {
		t.Errorf("blowup duplicate-row fraction = %v, want ~1", f[7])
	}
	er := graph.ErdosRenyi(128, 0.05, 3)
	fe := Extract(er)
	if fe[7] > 0.4 {
		t.Errorf("ER duplicate fraction = %v, want small", fe[7])
	}
}

func collectionGraphs(scale float64, seed int64) []*graph.Graph {
	col := datasets.SuiteSparseCollection(datasets.CollectionSpec{Scale: scale, Seed: seed, MaxN: 768})
	out := make([]*graph.Graph, len(col))
	for i, e := range col {
		out[i] = e.G
	}
	return out
}

func TestTrainPredictEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("training in short mode")
	}
	opt := core.AutoOptions{MaxM: 16, MaxV: 8}
	train := collectionGraphs(0.015, 11)
	examples, err := BuildExamples(train, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) < 10 {
		t.Fatalf("only %d examples", len(examples))
	}
	m, err := Train(examples, TrainConfig{Epochs: 200, LR: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Formats) < 2 {
		t.Fatalf("model saw %d formats", len(m.Formats))
	}
	// In-sample accuracy should beat the majority-class baseline.
	counts := map[string]int{}
	for _, ex := range examples {
		counts[ex.Label.String()]++
	}
	majority := 0
	for _, c := range counts {
		if c > majority {
			majority = c
		}
	}
	hits := 0
	for _, ex := range examples {
		if m.Predict(ex.F) == ex.Label {
			hits++
		}
	}
	if hits < majority {
		t.Errorf("in-sample hits %d below majority baseline %d of %d", hits, majority, len(examples))
	}
	// Held-out evaluation runs and produces sane rates.
	test := collectionGraphs(0.012, 99)
	top1, works, err := Evaluate(m, test, opt)
	if err != nil {
		t.Fatal(err)
	}
	if top1 < 0 || top1 > 1 || works < 0 || works > 1 {
		t.Errorf("rates out of range: %v %v", top1, works)
	}
	t.Logf("held-out: top1=%.2f works=%.2f over %d graphs", top1, works, len(test))
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, err := Train(nil, TrainConfig{}); err == nil {
		t.Error("want error for empty training set")
	}
	m := &Model{Formats: []pattern.VNM{pattern.NM(2, 4)}, W: [][]float64{make([]float64, NumFeatures)}, B: []float64{0}}
	for j := 0; j < NumFeatures; j++ {
		m.Std[j] = 1
	}
	if got := m.Predict(Features{}); got != pattern.NM(2, 4) {
		t.Errorf("single-class predict = %v", got)
	}
	if _, _, err := Evaluate(m, nil, core.AutoOptions{}); err == nil {
		t.Error("want error for empty evaluation set")
	}
}
