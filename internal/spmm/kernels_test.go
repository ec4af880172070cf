package spmm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bsr"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/resil"
	"repro/internal/sched"
	"repro/internal/sptc"
	"repro/internal/venom"
)

func TestSpMVMatchesSpMM(t *testing.T) {
	a := weightedGraphCSR(80, 4)
	x := make([]float32, 80)
	for i := range x {
		x[i] = float32(i%7) * 0.3
	}
	y := SpMV(sched.Default(), a, x)
	// SpMM with H=1 must agree.
	b := dense.FromData(80, 1, append([]float32(nil), x...))
	c := CSR(sched.Default(), nil, a, b)
	for i := range y {
		if d := math.Abs(float64(y[i] - c.At(i, 0))); d > 1e-4 {
			t.Fatalf("SpMV[%d] = %v, SpMM = %v", i, y[i], c.At(i, 0))
		}
	}
}

func TestSpMVPanicsOnMismatch(t *testing.T) {
	a := weightedGraphCSR(8, 1)
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	SpMV(sched.Default(), a, make([]float32, 4))
}

func TestBSRMatchesCSR(t *testing.T) {
	g := graph.ErdosRenyi(70, 0.1, 5)
	bm := g.ToBitMatrix()
	for _, M := range []int{4, 8} {
		bs, err := bsr.FromBitMatrix(bm, M)
		if err != nil {
			t.Fatal(err)
		}
		a := csr.FromBitMatrix(bm)
		b := randomB(70, 13, 3)
		want := CSR(sched.Default(), nil, a, b)
		got := BSR(sched.Default(), bs, b)
		if d := dense.MaxAbsDiff(want, got); d > 1e-4 {
			t.Errorf("M=%d: BSR SpMM differs from CSR by %v", M, d)
		}
	}
}

func TestBSRRaggedDimension(t *testing.T) {
	g := graph.ErdosRenyi(50, 0.12, 9) // 50 % 8 != 0
	bm := g.ToBitMatrix()
	bs, err := bsr.FromBitMatrix(bm, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := csr.FromBitMatrix(bm)
	b := randomB(50, 5, 2)
	if d := dense.MaxAbsDiff(CSR(sched.Default(), nil, a, b), BSR(sched.Default(), bs, b)); d > 1e-4 {
		t.Errorf("ragged BSR differs by %v", d)
	}
}

func BenchmarkSpMV(b *testing.B) {
	a, _ := benchGraphCSR(4096)
	x := make([]float32, 4096)
	for i := range x {
		x[i] = float32(i) * 1e-4
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SpMV(sched.Default(), a, x)
	}
}

func TestTraceMatchesCostModelStats(t *testing.T) {
	// The trace of executed work must coincide with the structural
	// counts the cost model charges for — the model is a deterministic
	// function of what the kernel actually does.
	a, cm := benchGraphCSR(512)
	tr := TraceVNM(sched.Default(), cm)
	st := sptc.Stats(cm, sptc.DefaultCostModel())
	if tr.Blocks != st.Blocks {
		t.Errorf("blocks: trace %d vs stats %d", tr.Blocks, st.Blocks)
	}
	if tr.BRowLoads != st.UsedCols {
		t.Errorf("B loads: trace %d vs stats %d", tr.BRowLoads, st.UsedCols)
	}
	if tr.InstrGroups != st.Fragments {
		t.Errorf("instruction groups: trace %d vs stats %d", tr.InstrGroups, st.Fragments)
	}
	// Active slots equal the compressed matrix's nonzeros, which equal
	// the (pruned) source's nonzeros.
	dec, err := cm.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if tr.ActiveSlots != dec.NNZ() {
		t.Errorf("active slots %d != decompressed nnz %d", tr.ActiveSlots, dec.NNZ())
	}
	if u := tr.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
	if tr.RowsTouched <= 0 || tr.RowsTouched > a.N {
		t.Errorf("rows touched = %d", tr.RowsTouched)
	}
	if tr.BytesValues <= 0 || tr.BytesMeta <= 0 || tr.BytesColumns <= 0 {
		t.Error("byte counters not populated")
	}
}

func TestTraceUltraSparseUtilization(t *testing.T) {
	// Scattered nonzeros -> heavy padding -> low utilization; this is
	// the quantity behind Figure 4's slowdown tail.
	g := graph.UltraSparse(2048, 0.05, 3)
	a := csr.FromGraph(g)
	comp, _, err := venom.SplitToConform(a, pattern.NM(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	tr := TraceVNM(sched.Default(), comp)
	if tr.Utilization() > 0.9 {
		t.Errorf("ultra-sparse utilization %v suspiciously high", tr.Utilization())
	}
	empty, _ := csr.FromEntries(8, nil, nil, nil)
	ec, err := venom.Compress(empty, pattern.NM(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if TraceVNM(sched.Default(), ec).Utilization() != 0 {
		t.Error("empty matrix utilization != 0")
	}
}

// TestTileFaultsSurface: a tile crash injected on the pool reaches the
// caller as a *sched.TileError from every kernel — none may return a
// silently partial result.
func TestTileFaultsSurface(t *testing.T) {
	g := graph.ErdosRenyi(96, 0.1, 3)
	a := csr.FromGraph(g)
	bs, err := bsr.FromBitMatrix(g.ToBitMatrix(), 8)
	if err != nil {
		t.Fatal(err)
	}
	comp, resid, err := venom.SplitToConform(a, pattern.NM(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	b := randomB(a.N, 8, 4)
	x := make([]float32, a.N)
	for i := range x {
		x[i] = b.At(i, 0)
	}
	for name, run := range map[string]func(p *sched.Pool){
		"csr":    func(p *sched.Pool) { CSR(p, nil, a, b) },
		"vnm":    func(p *sched.Pool) { VNM(p, nil, comp, b) },
		"hybrid": func(p *sched.Pool) { Hybrid(p, nil, nil, comp, resid, b) },
		"bsr":    func(p *sched.Pool) { BSR(p, bs, b) },
		"spmv":   func(p *sched.Pool) { SpMV(p, a, x) },
	} {
		for _, w := range []int{1, 2} {
			plan, err := resil.ParsePlan("seed=1; crash@tile:1")
			if err != nil {
				t.Fatal(err)
			}
			pool := sched.NewWithTarget(w, 16).WithInjector(resil.NewInjector(plan, nil))
			func() {
				defer func() {
					var te *sched.TileError
					if r := recover(); r == nil {
						t.Errorf("%s (workers=%d): injected tile crash swallowed", name, w)
					} else if err, ok := r.(error); !ok || !errors.As(err, &te) {
						t.Errorf("%s (workers=%d): panic %v, want *sched.TileError", name, w, r)
					}
				}()
				run(pool)
			}()
		}
	}
}
