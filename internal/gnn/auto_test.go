package gnn

import (
	"math"
	"testing"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/predictor/cycle"
	"repro/internal/sched"
)

// autoTable is a fixed calibration table so these tests never depend
// on machine timing: CSR cheap, hybrid expensive — the shape a CPU
// calibration produces.
func autoTable() *plan.Calibration {
	return &plan.Calibration{
		Seed: 3, Workers: 2,
		Coeffs: []plan.Coefficient{
			{Kernel: cycle.KernelCSR, NsPerCycle: 0.3},
			{Kernel: cycle.KernelHybrid, NsPerCycle: 1.2},
		},
	}
}

// TestEngineAutoAgreesWithStaticEngines: the planned backend is a
// drop-in for the static ones — same aggregation results within the
// cross-engine tolerance, and ledger charges accrue per dispatch.
func TestEngineAutoAgreesWithStaticEngines(t *testing.T) {
	g, x, _ := testSetup(t, 64)
	w := csr.SymNormalized(g)
	opCSR, _ := csrOp(t, w)

	f := NewFactory(EngineAuto, pattern.NM(2, 4))
	f.Calib = autoTable()
	if got := f.Kind.String(); got != "auto" {
		t.Fatalf("EngineAuto.String() = %q", got)
	}
	opAuto, err := f.Make(w)
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.MaxAbsDiff(opCSR.Mul(x), opAuto.Mul(x)); d > 1e-4 {
		t.Errorf("auto Mul disagrees with csr by %v", d)
	}
	if d := dense.MaxAbsDiff(opCSR.MulT(x), opAuto.MulT(x)); d > 1e-4 {
		t.Errorf("auto MulT disagrees with csr by %v", d)
	}
	if f.Ledger.AggCalls != 2 {
		t.Errorf("planned backend charged %d agg calls, want 2", f.Ledger.AggCalls)
	}
	if f.Ledger.AggCycles <= 0 {
		t.Errorf("planned backend charged no model cycles")
	}
}

// TestEngineAutoNilTableFallsBackToCSR: with no calibration the
// planner degrades to the serial CSR reference, whose bits equal the
// CSR engine's (the pool kernels are bit-deterministic).
func TestEngineAutoNilTableFallsBackToCSR(t *testing.T) {
	g, x, _ := testSetup(t, 48)
	w := csr.SymNormalized(g)
	opCSR, _ := csrOp(t, w)
	f := NewFactory(EngineAuto, pattern.NM(2, 4))
	opAuto, err := f.Make(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqualDense(opCSR.Mul(x), opAuto.Mul(x)) {
		t.Error("uncalibrated auto Mul not bit-identical to csr engine")
	}
	if !bitEqualDense(opCSR.MulT(x), opAuto.MulT(x)) {
		t.Error("uncalibrated auto MulT not bit-identical to csr engine")
	}
}

// TestEngineAutoSplitFailureDegradesToCSR: a malformed pattern cannot
// split, so the planned operator silently drops the hybrid classes
// instead of failing the factory.
func TestEngineAutoSplitFailureDegradesToCSR(t *testing.T) {
	g, x, _ := testSetup(t, 48)
	w := csr.SymNormalized(g)
	f := NewFactory(EngineAuto, pattern.VNM{}) // V=0: SplitToConform rejects
	f.Calib = autoTable()
	f.Pool = sched.New(2)
	opAuto, err := f.Make(w)
	if err != nil {
		t.Fatalf("split failure must degrade, not fail: %v", err)
	}
	opCSR, _ := csrOp(t, w)
	if !bitEqualDense(opCSR.Mul(x), opAuto.Mul(x)) {
		t.Error("degraded auto Mul not bit-identical to csr engine")
	}
}

// bitEqualDense compares two dense matrices for exact bit equality.
func bitEqualDense(a, b *dense.Matrix) bool {
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
