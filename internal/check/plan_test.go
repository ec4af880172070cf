package check

import (
	"math/rand"
	"testing"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/predictor/cycle"
	"repro/internal/sptc"
)

// plannerTable is a fixed calibration table for oracle tests that must
// not depend on machine timing.
func plannerTable() *plan.Calibration {
	return &plan.Calibration{
		Seed: 7, Workers: 4, TileTarget: 256,
		Coeffs: []plan.Coefficient{
			{Kernel: cycle.KernelCSR, NsPerCycle: 0.2},
			{Kernel: cycle.KernelHybrid, NsPerCycle: 0.7},
		},
	}
}

// TestPlannerEquivalenceRegimes: planned dispatch is bit-identical to
// direct kernel invocation on every sparsity regime, every worker
// count, chosen and forced classes, heap and arena outputs.
func TestPlannerEquivalenceRegimes(t *testing.T) {
	p := pattern.New(4, 2, 8)
	cal := plannerTable()
	for _, rg := range Regimes() {
		a := rg.RandomCSR(64, 11, true)
		b := RandomDense(a.N, 9, 1, 23)
		if err := PlannerEquivalence(a, b, p, cal, nil); err != nil {
			t.Errorf("regime %s: %v", rg.Name, err)
		}
	}
}

// TestPlannerRegretBounded: with a table measured on this machine the
// planned kernel stays within a generous factor of the best static
// choice. Wall-clock based, so -short skips it.
func TestPlannerRegretBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock regret check skipped in -short mode")
	}
	cal, err := plan.Measure(plan.MeasureConfig{Seed: 5, Workers: 2, Repeats: 2, ProbeN: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, rg := range Regimes() {
		a := rg.RandomCSR(1024, 3, true)
		b := RandomDense(a.N, 32, 1, 17)
		if err := PlannerRegret(a, b, pattern.New(4, 2, 8), cal, 2, 3, 3.0); err != nil {
			t.Errorf("regime %s: %v", rg.Name, err)
		}
	}
}

// blockPerm returns a permutation of 0..n-1 that shuffles whole
// aligned blocks of `block` rows, leaving order within each block
// intact. For block = lcm(V, M, FragRows) such a permutation maps
// every (V-row-group x M-column-group) tile and every FragRows
// fragment window onto another aligned position with identical
// content, so the V:N:M split statistics — and hence the planner's
// OpProfile — are preserved exactly.
func blockPerm(n, block int, seed int64) []int {
	nb := n / block
	order := rand.New(rand.NewSource(seed)).Perm(nb)
	perm := make([]int, 0, n)
	for _, blk := range order {
		for r := 0; r < block; r++ {
			perm = append(perm, blk*block+r)
		}
	}
	// Rows past the last complete block keep their labels.
	for r := nb * block; r < n; r++ {
		perm = append(perm, r)
	}
	return perm
}

// TestPlannerChoiceRelabelInvariance (metamorphic): relabeling
// vertices by a block permutation that preserves V-row-group and
// M-column-group membership leaves the profile — and therefore the
// decision — unchanged.
func TestPlannerChoiceRelabelInvariance(t *testing.T) {
	p := pattern.New(4, 2, 8)
	block := 16 // lcm(V=4, M=8, FragRows=16)
	cal := plannerTable()
	pl := &plan.Planner{Calib: cal}
	for _, rg := range Regimes() {
		a := rg.RandomCSR(128, 31, true)
		op, err := plan.Prepare(a, p)
		if err != nil {
			t.Fatalf("regime %s: %v", rg.Name, err)
		}
		perm := blockPerm(a.N, block, 97)
		if err := Permutation(perm, a.N); err != nil {
			t.Fatalf("blockPerm built an invalid permutation: %v", err)
		}
		ap, err := a.Permute(perm)
		if err != nil {
			t.Fatalf("regime %s: %v", rg.Name, err)
		}
		opp, err := plan.Prepare(ap, p)
		if err != nil {
			t.Fatalf("regime %s (permuted): %v", rg.Name, err)
		}
		cm := sptc.DefaultCostModel()
		for _, h := range []int{8, 64} {
			prof, profp := op.Profile(h, cm), opp.Profile(h, cm)
			if prof != profp {
				t.Fatalf("regime %s h=%d: block relabeling changed the profile:\n%+v\n%+v", rg.Name, h, prof, profp)
			}
			d, dp := pl.Choose(prof), pl.Choose(profp)
			if d.Kernel != dp.Kernel {
				t.Errorf("regime %s h=%d: relabeling flipped the choice %s -> %s", rg.Name, h, d.Kernel, dp.Kernel)
			}
		}
	}
}

// TestPlannerChoiceDeterministic (metamorphic): for a fixed table the
// decision depends only on the profile — rebuilding identical operands
// from the same seed yields the identical decision, including the full
// prediction ranking.
func TestPlannerChoiceDeterministic(t *testing.T) {
	p := pattern.New(4, 2, 8)
	pl := &plan.Planner{Calib: plannerTable()}
	for _, rg := range Regimes() {
		a1 := rg.RandomCSR(96, 13, true)
		a2 := rg.RandomCSR(96, 13, true)
		op1, err1 := plan.Prepare(a1, p)
		op2, err2 := plan.Prepare(a2, p)
		if err1 != nil || err2 != nil {
			t.Fatalf("regime %s: %v / %v", rg.Name, err1, err2)
		}
		d1, d2 := pl.ChooseOperands(op1, 16), pl.ChooseOperands(op2, 16)
		if d1.Kernel != d2.Kernel || len(d1.Predictions) != len(d2.Predictions) {
			t.Fatalf("regime %s: same seed, different decisions: %+v vs %+v", rg.Name, d1, d2)
		}
		for i := range d1.Predictions {
			if d1.Predictions[i] != d2.Predictions[i] {
				t.Fatalf("regime %s: ranking diverged at %d: %+v vs %+v", rg.Name, i, d1.Predictions[i], d2.Predictions[i])
			}
		}
	}
}
