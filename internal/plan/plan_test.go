package plan

import (
	"math"
	"testing"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/predictor/cycle"
	"repro/internal/sched"
	"repro/internal/spmm"
)

// cpuCalib is a fixed table shaped like a real CPU measurement: the
// hybrid class pays ~3.5x more ns per modeled cycle (no sparse tensor
// cores).
func cpuCalib() *Calibration {
	return &Calibration{
		Seed: 1, Workers: 4, TileTarget: 512,
		Coeffs: []Coefficient{
			{Kernel: cycle.KernelCSR, NsPerCycle: 0.20},
			{Kernel: cycle.KernelHybrid, NsPerCycle: 0.70},
		},
	}
}

func testOperands(t *testing.T, family string, n int, seed int64) Operands {
	t.Helper()
	g, err := graph.GenerateByName(family, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Prepare(csr.FromGraph(g), pattern.New(4, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestChooseDeterministicAndCalibrated: with a fixed table the
// decision is a pure function of the profile, and it reflects the
// calibrated wall-time ordering (not the raw cycle-model ordering).
func TestChooseDeterministicAndCalibrated(t *testing.T) {
	op := testOperands(t, "er", 1024, 3)
	pl := &Planner{Calib: cpuCalib()}
	prof := op.Profile(64, pl.cost())
	d1 := pl.Choose(prof)
	d2 := pl.Choose(prof)
	if d1.Kernel != d2.Kernel || d1.TileTarget != d2.TileTarget {
		t.Fatalf("same profile, different decisions: %+v vs %+v", d1, d2)
	}
	if len(d1.Predictions) != 2 {
		t.Fatalf("want both classes ranked, got %+v", d1.Predictions)
	}
	for i := 1; i < len(d1.Predictions); i++ {
		if d1.Predictions[i-1].Ns > d1.Predictions[i].Ns {
			t.Fatalf("predictions not sorted: %+v", d1.Predictions)
		}
	}
	// On the er regime the cycle model prefers hybrid (the er-8k
	// inversion); the calibrated table must flip that to CSR.
	cm := pl.cost()
	if cycle.ModelCycles(cm, cycle.KernelHybrid, prof) >=
		cycle.ModelCycles(cm, cycle.KernelCSR, prof) {
		t.Fatal("test premise broken: cycle model no longer prefers hybrid on er")
	}
	if d1.Kernel.IsHybrid() {
		t.Fatalf("calibrated planner still chose %s; predictions %+v", d1.Kernel, d1.Predictions)
	}
	if d1.TileTarget != 512 {
		t.Fatalf("decision dropped the calibrated tile target: %+v", d1)
	}
}

// TestChooseWithoutSplit: CSR-only operands never plan a hybrid class.
func TestChooseWithoutSplit(t *testing.T) {
	g, err := graph.GenerateByName("er", 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	op := Operands{A: csr.FromGraph(g)}
	pl := &Planner{Calib: cpuCalib()}
	d := pl.Choose(op.Profile(16, pl.cost()))
	if d.Kernel.IsHybrid() {
		t.Fatalf("hybrid class %s chosen without a split", d.Kernel)
	}
	if len(d.Predictions) != 1 {
		t.Fatalf("want only the CSR class ranked, got %+v", d.Predictions)
	}
}

// TestChooseEmptyTableFallsBack: a nil table degrades to the CSR
// kernel instead of failing.
func TestChooseEmptyTableFallsBack(t *testing.T) {
	op := testOperands(t, "ba", 256, 2)
	pl := &Planner{}
	d := pl.Choose(op.Profile(16, pl.cost()))
	if d.Kernel != cycle.KernelCSR || len(d.Predictions) != 0 {
		t.Fatalf("uncalibrated fallback: %+v", d)
	}
	if !math.IsInf(d.PredictedNs(), 1) {
		t.Fatalf("uncalibrated prediction should be +Inf, got %v", d.PredictedNs())
	}
}

// TestExecuteMatchesDirectKernels: Execute's result is bitwise equal to
// invoking each kernel class directly, with and without an arena.
func TestExecuteMatchesDirectKernels(t *testing.T) {
	op := testOperands(t, "ba", 512, 11)
	b := dense.NewMatrix(op.A.N, 24)
	b.Randomize(1, 13)
	pool := sched.New(2)
	refs := map[cycle.KernelClass]*dense.Matrix{
		cycle.KernelCSR:    spmm.CSR(pool, nil, op.A, b),
		cycle.KernelHybrid: spmm.Hybrid(pool, nil, nil, op.Comp, op.Resid, b),
	}
	var arena Arena
	for _, k := range cycle.KernelClasses() {
		d := Decision{Kernel: k}
		for name, got := range map[string]*dense.Matrix{
			"heap":  Execute(d, pool, op, b, nil),
			"arena": Execute(d, pool, op, b, &arena),
		} {
			if !bitEqual(got, refs[k]) {
				t.Fatalf("%s/%s: planned result differs from direct kernel", k, name)
			}
		}
	}
}

// bitEqual compares two dense matrices for exact bit equality.
func bitEqual(a, b *dense.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestMeasureProducesUsableTable: the one-shot calibration pass yields
// a full, parseable, round-trippable table whose planner chooses a
// kernel at all bench-like widths.
func TestMeasureProducesUsableTable(t *testing.T) {
	if testing.Short() {
		t.Skip("measured calibration skipped in -short mode")
	}
	cal, err := Measure(MeasureConfig{Seed: 20250806, Workers: 2, Repeats: 1, ProbeN: 512, Autotune: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Coeffs) != 2 {
		t.Fatalf("calibration has %d coefficients, want 2: %+v", len(cal.Coeffs), cal)
	}
	for _, co := range cal.Coeffs {
		if co.NsPerCycle <= 0 || math.IsInf(co.NsPerCycle, 0) || math.IsNaN(co.NsPerCycle) {
			t.Fatalf("coefficient %s = %v not positive finite", co.Kernel, co.NsPerCycle)
		}
	}
	rt, err := ParseCalibration(cal.String())
	if err != nil {
		t.Fatalf("measured table does not round-trip: %v", err)
	}
	if rt.String() != cal.String() {
		t.Fatalf("measured table round trip:\n%q\n%q", cal.String(), rt.String())
	}
	op := testOperands(t, "er", 512, 20250806)
	pl := &Planner{Calib: cal}
	for _, h := range []int{16, 64} {
		d := pl.ChooseOperands(op, h)
		if d.Kernel == "" || math.IsInf(d.PredictedNs(), 1) {
			t.Fatalf("measured planner produced no usable decision at h=%d: %+v", h, d)
		}
	}
}
