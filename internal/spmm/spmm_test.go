package spmm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sptc"
	"repro/internal/venom"
)

func randomB(n, h int, seed int64) *dense.Matrix {
	b := dense.NewMatrix(n, h)
	b.Randomize(1, seed)
	return b
}

func weightedGraphCSR(n int, seed int64) *csr.Matrix {
	g := graph.Banded(n, 2, 0.9, seed)
	m := csr.FromGraph(g)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Val {
		m.Val[i] = rng.Float32() + 0.1
	}
	return m
}

func TestCSRMatchesDense(t *testing.T) {
	a := weightedGraphCSR(60, 1)
	b := randomB(60, 17, 2)
	want := dense.MatMul(a.ToDense(), b)
	gotSerial := CSR(sched.Serial(), nil, a, b)
	gotPar := CSR(sched.Default(), nil, a, b)
	if d := dense.MaxAbsDiff(want, gotSerial); d > 1e-4 {
		t.Errorf("CSR on a pool of one differs from dense by %v", d)
	}
	if d := dense.MaxAbsDiff(want, gotPar); d > 1e-4 {
		t.Errorf("CSR differs from dense by %v", d)
	}
}

// TestCSRRowBitIdentical: a row recomputed alone by CSRRow has exactly
// the bits of the same row of the tiled CSR kernel, at widths that
// split rows across column tiles and on a multi-worker pool.
func TestCSRRowBitIdentical(t *testing.T) {
	a := weightedGraphCSR(300, 3)
	for _, h := range []int{1, 7, 64} {
		b := randomB(300, h, 4)
		want := CSR(sched.New(4), nil, a, b)
		dst := make([]float32, h)
		for i := 0; i < a.N; i++ {
			dst[0] = 42 // stale contents must be overwritten
			CSRRow(dst, a, i, func(j int32) []float32 { return b.Row(int(j)) })
			for k, v := range want.Row(i) {
				if math.Float32bits(dst[k]) != math.Float32bits(v) {
					t.Fatalf("h=%d row %d col %d: %v, want %v", h, i, k, dst[k], v)
				}
			}
		}
	}
}

func TestVNMMatchesCSR(t *testing.T) {
	// Reorder a banded graph to conform, compress, and check the VNM
	// kernel agrees with CSR on the reordered matrix.
	g := graph.Banded(96, 2, 0.9, 3)
	bm := g.ToBitMatrix()
	res, err := core.Reorder(bm, pattern.NM(2, 8), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforming() {
		t.Skip("banded graph did not conform; adjust test setup")
	}
	a := csr.FromBitMatrix(res.Matrix)
	cm, err := venom.Compress(a, res.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	b := randomB(96, 33, 4)
	want := CSR(sched.Default(), nil, a, b)
	got := VNM(sched.Default(), nil, cm, b)
	if d := dense.MaxAbsDiff(want, got); d > 1e-4 {
		t.Errorf("VNM differs from CSR by %v", d)
	}
}

func TestVNMWithLargeV(t *testing.T) {
	// Structured matrix conforming to 8:2:8, exercising V-row reuse.
	var rows, cols []int32
	var vals []float32
	rng := rand.New(rand.NewSource(5))
	n := 64
	p := pattern.New(8, 2, 8)
	for br := 0; br < n/8; br++ {
		baseCols := []int32{int32((br * 8) % n), int32((br*8 + 3) % n)}
		for dr := 0; dr < 8; dr++ {
			r := int32(br*8 + dr)
			for _, c := range baseCols {
				rows = append(rows, r)
				cols = append(cols, c)
				vals = append(vals, rng.Float32()+0.1)
			}
		}
	}
	a, err := csr.FromEntries(n, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	cmz, err := venom.Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	b := randomB(n, 24, 6)
	want := CSR(sched.Default(), nil, a, b)
	got := VNM(sched.Default(), nil, cmz, b)
	if d := dense.MaxAbsDiff(want, got); d > 1e-4 {
		t.Errorf("VNM (V=8) differs from CSR by %v", d)
	}
}

func TestReorderedSpMMEquivalence(t *testing.T) {
	// End-to-end losslessness: SpMM on the reordered system must equal
	// the un-reordered SpMM after permuting rows back.
	// If A' = P A Pᵀ and B' = P B, then C' = A'B' = P(AB) = P C.
	g := graph.Banded(64, 2, 0.9, 11)
	a := csr.FromGraph(g)
	bm := g.ToBitMatrix()
	res, err := core.Reorder(bm, pattern.NM(2, 4), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	aPerm, err := a.Permute(res.Perm)
	if err != nil {
		t.Fatal(err)
	}
	b := randomB(64, 9, 12)
	// B' = rows of B permuted: B'[i] = B[perm[i]].
	bPerm := dense.NewMatrix(64, 9)
	for i, old := range res.Perm {
		copy(bPerm.Row(i), b.Row(old))
	}
	c := CSR(sched.Default(), nil, a, b)
	cPerm := CSR(sched.Default(), nil, aPerm, bPerm)
	// cPerm[i] must equal c[perm[i]].
	for i, old := range res.Perm {
		for j := 0; j < 9; j++ {
			if diff := cPerm.At(i, j) - c.At(old, j); diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("row %d col %d: reordered SpMM differs (%v vs %v)", i, j, cPerm.At(i, j), c.At(old, j))
			}
		}
	}
}

func TestRunReports(t *testing.T) {
	g := graph.Banded(64, 2, 0.9, 7)
	a := csr.FromGraph(g)
	b := randomB(64, 16, 8)
	cmodel := sptc.DefaultCostModel()
	rep := RunCSR(sched.Default(), a, b, cmodel)
	if rep.Cycles <= 0 || rep.Kernel != "csr-cuda" || rep.C == nil {
		t.Errorf("RunCSR report incomplete: %+v", rep)
	}
	bm := g.ToBitMatrix()
	res, err := core.Reorder(bm, pattern.NM(2, 8), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conforming() {
		ac := csr.FromBitMatrix(res.Matrix)
		cmp, err := venom.Compress(ac, res.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		repV := RunVNM(sched.Default(), cmp, b, cmodel)
		if repV.Cycles <= 0 || repV.Kernel != "vnm-sptc" {
			t.Errorf("RunVNM report incomplete: %+v", repV)
		}
	}
}

func TestEmptyMatrix(t *testing.T) {
	a, err := csr.FromEntries(16, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := randomB(16, 4, 1)
	c := CSR(sched.Default(), nil, a, b)
	for _, v := range c.Data {
		if v != 0 {
			t.Fatal("empty SpMM produced nonzero")
		}
	}
	cm, err := venom.Compress(a, pattern.NM(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	cv := VNM(sched.Default(), nil, cm, b)
	for _, v := range cv.Data {
		if v != 0 {
			t.Fatal("empty VNM SpMM produced nonzero")
		}
	}
}

func benchGraphCSR(n int) (*csr.Matrix, *venom.Matrix) {
	g := graph.Banded(n, 2, 0.9, 1)
	bm := g.ToBitMatrix()
	res, err := core.Reorder(bm, pattern.NM(2, 8), core.Options{})
	if err != nil {
		panic(err)
	}
	a := csr.FromBitMatrix(res.Matrix)
	pr, _, err := venom.PruneToConform(a, res.Pattern)
	if err != nil {
		panic(err)
	}
	cm, err := venom.Compress(pr, res.Pattern)
	if err != nil {
		panic(err)
	}
	return a, cm
}

func BenchmarkCSRSpMM(b *testing.B) {
	a, _ := benchGraphCSR(2048)
	x := randomB(2048, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CSR(sched.Default(), nil, a, x)
	}
}

func BenchmarkVNMSpMM(b *testing.B) {
	_, cm := benchGraphCSR(2048)
	x := randomB(2048, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = VNM(sched.Default(), nil, cm, x)
	}
}
