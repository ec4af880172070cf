package datasets

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestSuiteSparseCollectionClasses(t *testing.T) {
	spec := CollectionSpec{Scale: 0.02, Seed: 1, MaxN: 2048}
	col := SuiteSparseCollection(spec)
	if len(col) < 9 {
		t.Fatalf("collection has %d graphs, want >= 9", len(col))
	}
	counts := map[SizeClass]int{}
	var avgN = map[SizeClass]float64{}
	for _, e := range col {
		if err := e.G.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", e.Name, err)
		}
		counts[e.Class]++
		avgN[e.Class] += float64(e.G.N())
	}
	for _, c := range []SizeClass{Small, Medium, Large} {
		if counts[c] < 3 {
			t.Errorf("class %v has %d graphs", c, counts[c])
		}
		avgN[c] /= float64(counts[c])
	}
	// Size classes must be ordered.
	if !(avgN[Small] < avgN[Medium] && avgN[Medium] <= avgN[Large]) {
		t.Errorf("class sizes not ordered: %v %v %v", avgN[Small], avgN[Medium], avgN[Large])
	}
	// Medium proportion should be largest, mirroring Table 1
	// (444/724/188).
	if !(counts[Medium] > counts[Small] && counts[Small] > counts[Large]) {
		t.Errorf("class counts %v don't mirror Table 1 proportions", counts)
	}
}

func TestCollectionDeterministic(t *testing.T) {
	spec := CollectionSpec{Scale: 0.01, Seed: 5, MaxN: 1024}
	a := SuiteSparseCollection(spec)
	b := SuiteSparseCollection(spec)
	if len(a) != len(b) {
		t.Fatal("counts differ")
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].G.NumEdges() != b[i].G.NumEdges() {
			t.Fatalf("entry %d not deterministic", i)
		}
	}
}

func TestCollectionDefaultSpec(t *testing.T) {
	col := SuiteSparseCollection(CollectionSpec{})
	if len(col) == 0 {
		t.Fatal("zero-value spec should fall back to defaults")
	}
	for _, e := range col {
		if e.G.N() > DefaultCollectionSpec().MaxN {
			t.Errorf("%s exceeds MaxN", e.Name)
		}
	}
}

func TestGenerateDatasetShape(t *testing.T) {
	opt := GenOptions{Scale: 0.05, Seed: 3, MaxClasses: 8}
	ds := Generate(GNNDatasetMetas[0], opt) // Cora
	if ds.Name != "Cora" {
		t.Errorf("name %q", ds.Name)
	}
	if ds.G.N() != ds.X.Rows || len(ds.Labels) != ds.G.N() {
		t.Error("graph/features/labels disagree on n")
	}
	if ds.Classes < 2 {
		t.Errorf("classes = %d", ds.Classes)
	}
	for _, l := range ds.Labels {
		if l < 0 || l >= ds.Classes {
			t.Fatalf("label %d out of range", l)
		}
	}
	if len(ds.Split.Train) == 0 || len(ds.Split.Test) == 0 {
		t.Error("empty split")
	}
	if ds.PaperN != 2708 || ds.PaperF != 1433 {
		t.Error("paper metadata wrong")
	}
}

func TestGNNDatasetsAll(t *testing.T) {
	all := GNNDatasets(GenOptions{Scale: 0.03, Seed: 1, MaxClasses: 6})
	if len(all) != len(GNNDatasetMetas) {
		t.Fatalf("generated %d datasets", len(all))
	}
	seen := map[string]bool{}
	for _, ds := range all {
		if seen[ds.Name] {
			t.Errorf("duplicate %s", ds.Name)
		}
		seen[ds.Name] = true
		if err := ds.G.Validate(); err != nil {
			t.Errorf("%s: %v", ds.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("Citeseer", GenOptions{Scale: 0.03, Seed: 1, MaxClasses: 4}); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope", GenOptions{}); err == nil {
		t.Error("want error for unknown dataset")
	}
}

func TestDatasetHomophily(t *testing.T) {
	ds := Generate(GNNDatasetMetas[0], GenOptions{Scale: 0.08, Seed: 2, MaxClasses: 7})
	intra, inter := 0, 0
	for u := 0; u < ds.G.N(); u++ {
		for _, v := range ds.G.Neighbors(u) {
			if ds.Labels[u] == ds.Labels[int(v)] {
				intra++
			} else {
				inter++
			}
		}
	}
	if intra <= inter {
		t.Errorf("homophilous dataset has intra=%d <= inter=%d", intra, inter)
	}
}

func TestOGBN(t *testing.T) {
	meta := OGBNMetas[1]
	if meta.Name != "ogbn-arxiv" {
		t.Fatalf("OGBNMetas[1] = %q, want ogbn-arxiv", meta.Name)
	}
	g := OGBNGraph(meta, 0.02, 1)
	if g.N() < 2000 {
		t.Errorf("n = %d too small", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := graph.ComputeStats(g, 1)
	if st.AvgDegree < 1 {
		t.Errorf("avg degree %v", st.AvgDegree)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := Generate(GNNDatasetMetas[0], GenOptions{Scale: 0.04, Seed: 3, MaxClasses: 5})
	var buf bytes.Buffer
	if err := Save(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != ds.Name || back.G.N() != ds.G.N() || back.G.NumEdges() != ds.G.NumEdges() {
		t.Error("graph changed in round trip")
	}
	if back.X.Rows != ds.X.Rows || back.X.Cols != ds.X.Cols {
		t.Error("feature shape changed")
	}
	for i := range ds.X.Data {
		if back.X.Data[i] != ds.X.Data[i] {
			t.Fatal("feature values changed")
		}
	}
	for i := range ds.Labels {
		if back.Labels[i] != ds.Labels[i] {
			t.Fatal("labels changed")
		}
	}
	if len(back.Split.Train) != len(ds.Split.Train) || back.PaperN != ds.PaperN {
		t.Error("split/meta changed")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a bundle")); err == nil {
		t.Error("want decode error")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ X int }{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("want tag error")
	}
}

func BenchmarkSuiteSparseCollection(b *testing.B) {
	spec := CollectionSpec{Scale: 0.008, Seed: 1, MaxN: 768}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SuiteSparseCollection(spec)
	}
}
