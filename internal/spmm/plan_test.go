package spmm

import (
	"math/rand"
	"testing"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sptc"
)

func planTestMatrix(t *testing.T) (*csr.Matrix, pattern.VNM) {
	t.Helper()
	// A matching-like conforming matrix: row i connects to i^1 within
	// aligned pairs, guaranteed 2:4-conforming.
	n := 64
	var rows, cols []int32
	var vals []float32
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		j := i ^ 1
		rows = append(rows, int32(i))
		cols = append(cols, int32(j))
		vals = append(vals, rng.Float32()+0.1)
	}
	a, err := csr.FromEntries(n, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	return a, pattern.NM(2, 4)
}

func TestPlanStrictExecute(t *testing.T) {
	a, p := planTestMatrix(t)
	plan, err := NewPlan(sched.Default(), a, p, sptc.DefaultCostModel(), false)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ResidualNNZ() != 0 {
		t.Error("strict plan has residual")
	}
	b := dense.NewMatrix(a.N, 16)
	b.Randomize(1, 2)
	c, err := plan.Execute(b)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-validate against the dense reference.
	want := dense.MatMul(a.ToDense(), b)
	if d := dense.MaxAbsDiff(want, c); d > 1e-4 {
		t.Errorf("plan execution differs from dense by %v", d)
	}
	if plan.Executions() != 1 || plan.AccumulatedCycles() <= 0 {
		t.Error("plan accounting broken")
	}
	// Second execution accumulates.
	if _, err := plan.Execute(b); err != nil {
		t.Fatal(err)
	}
	if plan.Executions() != 2 {
		t.Error("execution counter wrong")
	}
	if est := plan.EstimateCycles(16); plan.AccumulatedCycles() != 2*est {
		t.Errorf("accumulated %v != 2 x estimate %v", plan.AccumulatedCycles(), est)
	}
}

func TestPlanStrictRejectsNonConforming(t *testing.T) {
	g := graph.ErdosRenyi(48, 0.3, 1)
	a := csr.FromGraph(g)
	if _, err := NewPlan(sched.Default(), a, pattern.NM(2, 4), sptc.DefaultCostModel(), false); err == nil {
		t.Error("strict plan accepted non-conforming matrix")
	}
	// Hybrid mode accepts it and stays exact.
	plan, err := NewPlan(sched.Default(), a, pattern.NM(2, 4), sptc.DefaultCostModel(), true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ResidualNNZ() == 0 {
		t.Error("hybrid plan should have residual on dense input")
	}
	b := dense.NewMatrix(a.N, 8)
	b.Randomize(1, 3)
	c, err := plan.Execute(b)
	if err != nil {
		t.Fatal(err)
	}
	want := dense.MatMul(a.ToDense(), b)
	if d := dense.MaxAbsDiff(want, c); d > 1e-4 {
		t.Errorf("hybrid execution differs from dense by %v", d)
	}
}

func TestPlanDimensionCheck(t *testing.T) {
	a, p := planTestMatrix(t)
	plan, err := NewPlan(sched.Default(), a, p, sptc.DefaultCostModel(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(dense.NewMatrix(3, 4)); err == nil {
		t.Error("want dimension error")
	}
	if plan.Pattern() != p {
		t.Error("pattern accessor wrong")
	}
	if plan.Compressed() == nil {
		t.Error("compressed accessor nil")
	}
}
