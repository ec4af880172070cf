package cycle_test

import (
	"math"
	"testing"

	"repro/internal/csr"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/predictor/cycle"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// goldenGraph mirrors datasets.Family's generator mapping for the
// three golden regimes without importing datasets (which sits above
// this package in the dependency order).
func goldenGraph(t *testing.T, family string, n int, degree float64, seed int64) *graph.Graph {
	t.Helper()
	switch family {
	case "powerlaw":
		m := int(degree / 4)
		if m < 1 {
			m = 1
		}
		return graph.BarabasiAlbert(n, m, seed)
	case "banded":
		return graph.Banded(n, int(degree/1.6)+1, 0.8, seed)
	case "er":
		return graph.ErdosRenyi(n, degree/float64(n), seed)
	}
	t.Fatalf("unknown golden family %q", family)
	return nil
}

// goldenProfile builds the fixed regime operands the golden values
// were computed from: the datasets.Family generators at seed 7, split
// at 4:2:8, dense width 64.
func goldenProfile(t *testing.T, family string, n int, degree float64) cycle.OpProfile {
	t.Helper()
	g := goldenGraph(t, family, n, degree, 7)
	a := csr.FromGraph(g)
	comp, resid, err := venom.SplitToConform(a, pattern.New(4, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	return cycle.ProfileOf(a, comp, resid, 64, sptc.DefaultCostModel())
}

// TestModelCyclesGolden pins the cycle model's value for every kernel
// class on one graph per regime family. The values are pure functions
// of (cost model, operand structure); a change here means either the
// cost model or the compression layout changed, both of which must be
// deliberate (they shift every planner decision and BENCH row).
func TestModelCyclesGolden(t *testing.T) {
	cm := sptc.DefaultCostModel()
	cases := []struct {
		family string
		n      int
		degree float64
		golden map[cycle.KernelClass]float64
	}{
		{"er", 1024, 8, map[cycle.KernelClass]float64{
			cycle.KernelCSR:    1.050112e+06,
			cycle.KernelHybrid: 324736,
		}},
		{"powerlaw", 1024, 8, map[cycle.KernelClass]float64{
			cycle.KernelCSR:    524032,
			cycle.KernelHybrid: 165088,
		}},
		{"banded", 1024, 6, map[cycle.KernelClass]float64{
			cycle.KernelCSR:    833792,
			cycle.KernelHybrid: 412448,
		}},
	}
	for _, tc := range cases {
		p := goldenProfile(t, tc.family, tc.n, tc.degree)
		for _, k := range cycle.KernelClasses() {
			got := cycle.ModelCycles(cm, k, p)
			want := tc.golden[k]
			if math.Abs(got-want) > 1e-6*want {
				t.Errorf("%s/%s: ModelCycles = %v, want golden %v", tc.family, k, got, want)
			}
		}
	}
}

// TestModelCyclesHybridNeedsSplit: without a compressed split the
// hybrid class costs zero, which the planner reads as "cannot run".
func TestModelCyclesHybridNeedsSplit(t *testing.T) {
	cm := sptc.DefaultCostModel()
	g := goldenGraph(t, "er", 256, 6, 3)
	p := cycle.ProfileOf(csr.FromGraph(g), nil, nil, 32, cm)
	if p.HasSplit {
		t.Fatal("profile without operands claims a split")
	}
	if c := cycle.ModelCycles(cm, cycle.KernelHybrid, p); c != 0 {
		t.Errorf("hybrid cycles without split = %v, want 0", c)
	}
	if c := cycle.ModelCycles(cm, cycle.KernelCSR, p); c <= 0 {
		t.Errorf("csr cycles without split = %v, want > 0", c)
	}
}

// TestProfileOfResidual: the residual half of the split is profiled so
// hybrid costs include the CSR cleanup for non-conforming entries.
func TestProfileOfResidual(t *testing.T) {
	cm := sptc.DefaultCostModel()
	p := goldenProfile(t, "banded", 1024, 6)
	if p.ResidNNZ == 0 {
		t.Skip("banded regime unexpectedly conforms fully")
	}
	noResid := p
	noResid.ResidNNZ = 0
	withC := cycle.ModelCycles(cm, cycle.KernelHybrid, p)
	withoutC := cycle.ModelCycles(cm, cycle.KernelHybrid, noResid)
	if withC <= withoutC {
		t.Errorf("residual entries must add cycles: with %v <= without %v", withC, withoutC)
	}
}
