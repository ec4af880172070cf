package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewFromEdgesBasic(t *testing.T) {
	g, err := NewFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 1}}) // dup collapsed
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 {
		t.Errorf("N = %d, want 4", g.N())
	}
	if g.NumEdges() != 6 { // 3 undirected edges, both directions
		t.Errorf("NumEdges = %d, want 6", g.NumEdges())
	}
	if g.NumUndirectedEdges() != 3 {
		t.Errorf("NumUndirectedEdges = %d, want 3", g.NumUndirectedEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewFromEdgesOutOfRange(t *testing.T) {
	if _, err := NewFromEdges(2, [][2]int{{0, 2}}); err == nil {
		t.Error("want error for out-of-range edge")
	}
	if _, err := NewFromEdges(2, [][2]int{{-1, 0}}); err == nil {
		t.Error("want error for negative vertex")
	}
}

func TestSelfLoop(t *testing.T) {
	g, err := NewFromEdges(3, [][2]int{{0, 0}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 0) {
		t.Error("self loop missing")
	}
	if g.NumUndirectedEdges() != 2 {
		t.Errorf("NumUndirectedEdges = %d, want 2", g.NumUndirectedEdges())
	}
}

func TestApplyPermutationPreservesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := ErdosRenyi(60, 0.1, 7)
	perm := rng.Perm(60)
	p, err := g.ApplyPermutation(perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("permuted graph invalid: %v", err)
	}
	if p.NumEdges() != g.NumEdges() {
		t.Errorf("edge count changed: %d -> %d", g.NumEdges(), p.NumEdges())
	}
	// Edge (u,v) in original iff (inv[u], inv[v]) in permuted.
	inv := make([]int, 60)
	for newPos, old := range perm {
		inv[old] = newPos
	}
	for u := 0; u < 60; u++ {
		for _, v := range g.Neighbors(u) {
			if !p.HasEdge(inv[u], inv[int(v)]) {
				t.Fatalf("edge (%d,%d) lost under permutation", u, v)
			}
		}
	}
}

func TestApplyPermutationRejectsInvalid(t *testing.T) {
	g := Grid2D(2, 2)
	if _, err := g.ApplyPermutation([]int{0, 1, 2}); err == nil {
		t.Error("want error for short permutation")
	}
	if _, err := g.ApplyPermutation([]int{0, 0, 1, 2}); err == nil {
		t.Error("want error for duplicate entry")
	}
	if _, err := g.ApplyPermutation([]int{0, 1, 2, 4}); err == nil {
		t.Error("want error for out-of-range entry")
	}
}

func TestBitMatrixRoundTrip(t *testing.T) {
	g := BarabasiAlbert(80, 3, 5)
	m := g.ToBitMatrix()
	if !m.IsSymmetric() {
		t.Error("adjacency bit matrix not symmetric")
	}
	g2 := FromBitMatrix(m)
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("round trip changed edges: %d -> %d", g.NumEdges(), g2.NumEdges())
	}
	for u := 0; u < g.N(); u++ {
		a, b := g.Neighbors(u), g2.Neighbors(u)
		if len(a) != len(b) {
			t.Fatalf("row %d length differs", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d differs at %d", u, i)
			}
		}
	}
}

func TestSubgraph(t *testing.T) {
	g, _ := NewFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}})
	sub, orig := g.Subgraph([]int{1, 2, 3})
	if sub.N() != 3 {
		t.Fatalf("sub.N = %d", sub.N())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Error("subgraph edges wrong")
	}
	if orig[0] != 1 || orig[2] != 3 {
		t.Error("orig mapping wrong")
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("subgraph invalid: %v", err)
	}
}

func TestGenerators(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
	}{
		{"ER", ErdosRenyi(200, 0.05, 1)},
		{"BA", BarabasiAlbert(200, 4, 1)},
		{"Banded", Banded(200, 6, 0.7, 1)},
		{"Grid", Grid2D(10, 20)},
		{"RMAT", RMAT(8, 8, 0.57, 0.19, 0.19, 1)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err != nil {
				t.Fatalf("invalid: %v", err)
			}
			if tc.g.NumEdges() == 0 {
				t.Error("no edges generated")
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := ErdosRenyi(100, 0.1, 42)
	b := ErdosRenyi(100, 0.1, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Error("ER not deterministic")
	}
	c := BarabasiAlbert(100, 3, 42)
	d := BarabasiAlbert(100, 3, 42)
	if c.NumEdges() != d.NumEdges() {
		t.Error("BA not deterministic")
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	g := ErdosRenyi(500, 0.04, 9)
	want := 0.04 * 500 * 499 / 2
	got := float64(g.NumUndirectedEdges())
	if got < want*0.8 || got > want*1.2 {
		t.Errorf("ER edges = %v, want ~%v", got, want)
	}
}

func TestBarabasiAlbertHeavyTail(t *testing.T) {
	g := BarabasiAlbert(1000, 3, 3)
	st := ComputeStats(g, 1)
	if float64(st.MaxDegree) < 4*st.AvgDegree {
		t.Errorf("BA max degree %d not heavy-tailed vs avg %.1f", st.MaxDegree, st.AvgDegree)
	}
}

func TestSBM(t *testing.T) {
	g, labels := SBM([]int{50, 50, 50}, 0.2, 0.01, 11)
	if g.N() != 150 || len(labels) != 150 {
		t.Fatalf("SBM sizes wrong: n=%d labels=%d", g.N(), len(labels))
	}
	if labels[0] != 0 || labels[149] != 2 {
		t.Error("labels wrong")
	}
	// Intra-class edges should dominate.
	intra, inter := 0, 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if labels[u] == labels[int(v)] {
				intra++
			} else {
				inter++
			}
		}
	}
	if intra <= inter*2 {
		t.Errorf("SBM assortativity weak: intra=%d inter=%d", intra, inter)
	}
}

func TestGrid2DStructure(t *testing.T) {
	g := Grid2D(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// Interior vertex (1,1) = id 5 has 4 neighbors.
	if g.Degree(5) != 4 {
		t.Errorf("interior degree = %d, want 4", g.Degree(5))
	}
	// Corner has 2.
	if g.Degree(0) != 2 {
		t.Errorf("corner degree = %d, want 2", g.Degree(0))
	}
	// Exact diameter of 3x4 grid is (3-1)+(4-1) = 5.
	if d := EstimateDiameter(g, 8, 1); d != 5 {
		t.Errorf("grid diameter = %d, want 5", d)
	}
}

func TestBFS(t *testing.T) {
	g, _ := NewFromEdges(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	dist, far, fd := BFS(g, 0)
	if dist[2] != 2 || dist[1] != 1 || dist[0] != 0 {
		t.Errorf("BFS dist = %v", dist)
	}
	if dist[3] != -1 || dist[4] != -1 {
		t.Error("unreachable vertices should be -1")
	}
	if far != 2 || fd != 2 {
		t.Errorf("far = %d (%d), want 2 (2)", far, fd)
	}
}

func TestComputeStats(t *testing.T) {
	g := Grid2D(5, 5)
	st := ComputeStats(g, 1)
	if st.Vertices != 25 {
		t.Errorf("Vertices = %d", st.Vertices)
	}
	if st.Edges != 40 {
		t.Errorf("Edges = %d, want 40", st.Edges)
	}
	if st.MaxDegree != 4 {
		t.Errorf("MaxDegree = %d, want 4", st.MaxDegree)
	}
	if st.AvgDegree <= 0 || st.MedDegree <= 0 || st.Density <= 0 {
		t.Error("stats not populated")
	}
	empty := ComputeStats(mustGraph(t, 0, nil), 1)
	if empty.Vertices != 0 {
		t.Error("empty stats wrong")
	}
}

func mustGraph(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	g, err := NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := ErdosRenyi(50, 0.1, 13)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: n %d->%d edges %d->%d", g.N(), g2.N(), g.NumEdges(), g2.NumEdges())
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if !g2.HasEdge(u, int(v)) {
				t.Fatalf("edge (%d,%d) lost", u, v)
			}
		}
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n1 1\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n3 1\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\nx y z\n",
	}
	for i, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Grid2D(3, 3)
	c := g.Clone()
	rp, _, _ := c.CSR()
	rp[0] = 99
	rp2, _, _ := g.CSR()
	if rp2[0] == 99 {
		t.Error("Clone shares storage")
	}
}

func TestPermutationRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		g := ErdosRenyi(n, 0.2, seed)
		perm := rng.Perm(n)
		p, err := g.ApplyPermutation(perm)
		if err != nil {
			return false
		}
		inv := make([]int, n)
		for np, old := range perm {
			inv[old] = np
		}
		back, err := p.ApplyPermutation(inv)
		if err != nil {
			return false
		}
		if back.NumEdges() != g.NumEdges() {
			return false
		}
		for u := 0; u < n; u++ {
			a, b := g.Neighbors(u), back.Neighbors(u)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkToBitMatrix(b *testing.B) {
	g := BarabasiAlbert(2000, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.ToBitMatrix()
	}
}

func BenchmarkApplyPermutation(b *testing.B) {
	g := BarabasiAlbert(2000, 8, 1)
	perm := rand.New(rand.NewSource(2)).Perm(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ApplyPermutation(perm); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := ErdosRenyi(60, 0.08, 17)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumUndirectedEdges() != g.NumUndirectedEdges() {
		t.Fatalf("edges %d -> %d", g.NumUndirectedEdges(), g2.NumUndirectedEdges())
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if !g2.HasEdge(u, int(v)) {
				t.Fatalf("edge (%d,%d) lost", u, v)
			}
		}
	}
}

func TestReadEdgeListCommentsAndErrors(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# comment\n% other\n0 1\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.NumUndirectedEdges() != 2 {
		t.Errorf("n=%d edges=%d", g.N(), g.NumUndirectedEdges())
	}
	for _, bad := range []string{"0\n", "a b\n", "0 x\n", "-1 2\n"} {
		if _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q: want error", bad)
		}
	}
}

func TestGenerateByName(t *testing.T) {
	for _, name := range []string{"banded", "grid", "er", "ba", "community", "ultrasparse", "blowup", "rmat"} {
		g, err := GenerateByName(name, 200, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() == 0 {
			t.Errorf("%s: empty graph", name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := GenerateByName("bogus", 100, 1); err == nil {
		t.Error("want error for unknown generator")
	}
}
