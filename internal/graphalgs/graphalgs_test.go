package graphalgs

import (
	"math/rand"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
)

func TestKruskalOnKnownGraph(t *testing.T) {
	// Square with one diagonal; weights force a unique MST.
	g, err := graph.NewFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	w := map[[2]int]float64{
		{0, 1}: 1, {1, 2}: 4, {2, 3}: 2, {0, 3}: 3, {0, 2}: 5,
	}
	weight := func(u, v int) float64 {
		if u > v {
			u, v = v, u
		}
		return w[[2]int{u, v}]
	}
	mst, total := Kruskal(g, weight)
	if len(mst) != 3 {
		t.Fatalf("MST has %d edges, want 3", len(mst))
	}
	if total != 1+2+3 {
		t.Errorf("MST weight %v, want 6", total)
	}
}

func TestKruskalSpanningForest(t *testing.T) {
	g, _ := graph.NewFromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 3}})
	mst, _ := Kruskal(g, nil)
	// Components: {0,1,2}: 2 edges, {3,4,5}: 2 edges, {6}: 0.
	if len(mst) != 4 {
		t.Errorf("forest has %d edges, want 4", len(mst))
	}
}

func TestMSTWeightInvariantUnderReordering(t *testing.T) {
	// The paper's point: a SOGRE-reordered graph is the same graph, so
	// symmetric-matrix algorithms give the same answers.
	g := graph.ErdosRenyi(80, 0.1, 3)
	weight := func(u, v int) float64 {
		if u > v {
			u, v = v, u
		}
		return float64((u*131 + v*7) % 97)
	}
	_, total := Kruskal(g, weight)
	res, err := core.Reorder(g.ToBitMatrix(), pattern.NM(2, 4), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := g.ApplyPermutation(res.Perm)
	if err != nil {
		t.Fatal(err)
	}
	// Weight function must follow the renaming: edge (i,j) in rg is
	// (perm[i], perm[j]) originally.
	rweight := func(u, v int) float64 { return weight(res.Perm[u], res.Perm[v]) }
	_, rtotal := Kruskal(rg, rweight)
	if total != rtotal {
		t.Errorf("MST weight changed under reordering: %v -> %v", total, rtotal)
	}
}

func TestSpectralBisectionFindsCommunities(t *testing.T) {
	g, labels := graph.SBM([]int{40, 40}, 0.4, 0.01, 5)
	side := SpectralBisection(g, 300, 1)
	// The bisection should align with the planted communities (up to
	// global flip).
	agree := 0
	for i := range labels {
		if side[i] == labels[i] {
			agree++
		}
	}
	if agree < len(labels)/2 {
		agree = len(labels) - agree
	}
	if float64(agree)/float64(len(labels)) < 0.9 {
		t.Errorf("bisection recovers %d/%d of the planted partition", agree, len(labels))
	}
	cut := CutSize(g, side)
	if cut > g.NumUndirectedEdges()/4 {
		t.Errorf("cut %d too large", cut)
	}
}

func TestSpectralCutInvariantUnderReordering(t *testing.T) {
	g, _ := graph.SBM([]int{30, 30}, 0.4, 0.01, 9)
	side := SpectralBisection(g, 300, 2)
	cut := CutSize(g, side)
	res, err := core.Reorder(g.ToBitMatrix(), pattern.NM(2, 4), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := g.ApplyPermutation(res.Perm)
	if err != nil {
		t.Fatal(err)
	}
	rside := SpectralBisection(rg, 300, 2)
	rcut := CutSize(rg, rside)
	// Same graph, so the achievable cut is the same; allow slack for
	// the randomized start.
	if rcut > cut*2+4 && cut > 0 {
		t.Errorf("reordered cut %d far from original %d", rcut, cut)
	}
}

func TestVerifyIsomorphism(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 7)
	perm := rand.New(rand.NewSource(1)).Perm(60)
	h, err := g.ApplyPermutation(perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIsomorphism(g, h, perm); err != nil {
		t.Errorf("valid isomorphism rejected: %v", err)
	}
	// Wrong permutation is rejected.
	bad := rand.New(rand.NewSource(2)).Perm(60)
	if err := VerifyIsomorphism(g, h, bad); err == nil {
		t.Error("wrong permutation accepted")
	}
	// Different graph is rejected.
	other := graph.ErdosRenyi(60, 0.1, 3)
	if err := VerifyIsomorphism(g, other, perm); err == nil {
		t.Error("non-isomorphic graphs accepted")
	}
	// Size mismatch.
	small := graph.Grid2D(2, 2)
	if err := VerifyIsomorphism(g, small, perm); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestWLHashInvariance(t *testing.T) {
	g := graph.BarabasiAlbert(100, 3, 11)
	h1 := WeisfeilerLehmanHash(g, 3)
	perm := rand.New(rand.NewSource(3)).Perm(100)
	pg, _ := g.ApplyPermutation(perm)
	h2 := WeisfeilerLehmanHash(pg, 3)
	if h1 != h2 {
		t.Error("WL hash changed under renumbering")
	}
	other := graph.BarabasiAlbert(100, 3, 12)
	if WeisfeilerLehmanHash(other, 3) == h1 {
		t.Log("different graphs collided (possible but unlikely)")
	}
}

func TestSOGREKeepsSymmetryJigsawDoesNot(t *testing.T) {
	// The headline qualitative comparison of the paper's Section 6.
	g := graph.BarabasiAlbert(96, 3, 13)
	m := g.ToBitMatrix()
	p := pattern.NM(2, 4)
	res, err := core.Reorder(m, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matrix.IsSymmetric() {
		t.Error("SOGRE output is not a valid undirected adjacency")
	}
	jig := baselines.Jigsaw(m, p)
	if jig.Matrix.IsSymmetric() {
		t.Log("Jigsaw output happened to stay symmetric on this input")
	}
	// And the SOGRE result is certifiably the same graph.
	rg, err := g.ApplyPermutation(res.Perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIsomorphism(g, rg, res.Perm); err != nil {
		t.Errorf("SOGRE reordering is not an isomorphism: %v", err)
	}
	if WeisfeilerLehmanHash(g, 3) != WeisfeilerLehmanHash(rg, 3) {
		t.Error("WL fingerprints differ after SOGRE reorder")
	}
}

func BenchmarkKruskal(b *testing.B) {
	g := graph.BarabasiAlbert(2048, 4, 1)
	w := func(u, v int) float64 { return float64((u*31 + v*17) % 1009) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Kruskal(g, w)
	}
}

func BenchmarkSpectralBisection(b *testing.B) {
	g, _ := graph.SBM([]int{512, 512}, 0.02, 0.001, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SpectralBisection(g, 100, 1)
	}
}
