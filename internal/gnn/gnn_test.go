package gnn

import (
	"math"
	"testing"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// testSetup builds a small graph, operators and features.
func testSetup(t testing.TB, n int) (*graph.Graph, *dense.Matrix, []int) {
	t.Helper()
	g, labels := graph.SBM([]int{n / 2, n / 2}, 0.3, 0.02, 7)
	x := dense.NewMatrix(g.N(), 6)
	x.Randomize(1, 3)
	// Make features class-informative.
	for i := 0; i < g.N(); i++ {
		x.Set(i, labels[i], x.At(i, labels[i])+2)
	}
	return g, x, labels
}

func csrOp(t testing.TB, w *csr.Matrix) (Operator, *Ledger) {
	t.Helper()
	f := NewFactory(EngineCSR, pattern.NM(2, 4))
	op, err := f.Make(w)
	if err != nil {
		t.Fatal(err)
	}
	return op, f.Ledger
}

// numericalGradCheck verifies Backward against finite differences on a
// few parameter entries.
func numericalGradCheck(t *testing.T, m Model, x *dense.Matrix, labels []int, idx []int) {
	t.Helper()
	lossOf := func() float64 {
		logits := m.Forward(x)
		probs := logits.Clone()
		dense.SoftmaxRows(probs)
		loss, _ := dense.CrossEntropy(probs, labels, idx)
		return loss
	}
	m.ZeroGrads()
	logits := m.Forward(x)
	probs := logits.Clone()
	dense.SoftmaxRows(probs)
	_, grad := dense.CrossEntropy(probs, labels, idx)
	m.Backward(grad)
	params, grads := m.Params(), m.Grads()
	const eps = 1e-2
	checked := 0
	for pi, p := range params {
		if len(p.Data) == 0 {
			continue
		}
		for _, k := range []int{0, len(p.Data) / 2, len(p.Data) - 1} {
			orig := p.Data[k]
			p.Data[k] = orig + eps
			up := lossOf()
			p.Data[k] = orig - eps
			down := lossOf()
			p.Data[k] = orig
			numGrad := (up - down) / (2 * eps)
			anaGrad := float64(grads[pi].Data[k])
			if math.Abs(numGrad-anaGrad) > 2e-2*(1+math.Abs(numGrad)) {
				t.Errorf("%s param %d[%d]: numerical %v vs analytic %v", m.Name(), pi, k, numGrad, anaGrad)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no parameters checked")
	}
}

func TestGradientsAllModels(t *testing.T) {
	g, x, labels := testSetup(t, 24)
	idx := []int{0, 3, 7, 12, 20}
	for _, kind := range AllModelKinds {
		t.Run(string(kind), func(t *testing.T) {
			var w *csr.Matrix
			switch kind {
			case KindCheb:
				w = csr.ScaledLaplacian(g)
			case KindSAGE:
				w = csr.RowNormalized(g)
			default:
				w = csr.SymNormalized(g)
			}
			op, ledger := csrOp(t, w)
			m, err := Build(kind, op, ledger, Config{In: 6, Hidden: 5, Classes: 2, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if sgc, ok := m.(*SGC); ok {
				sgc.Cache = true // cache is safe: op and x are constant
			}
			numericalGradCheck(t, m, x, labels, idx)
		})
	}
}

func TestTrainingLearnsSBM(t *testing.T) {
	g, x, labels := testSetup(t, 80)
	split := RandomSplit(g.N(), 0.5, 0.2, 4)
	for _, kind := range AllModelKinds {
		t.Run(string(kind), func(t *testing.T) {
			var w *csr.Matrix
			switch kind {
			case KindCheb:
				w = csr.ScaledLaplacian(g)
			case KindSAGE:
				w = csr.RowNormalized(g)
			default:
				w = csr.SymNormalized(g)
			}
			op, ledger := csrOp(t, w)
			m, err := Build(kind, op, ledger, Config{In: 6, Hidden: 8, Classes: 2, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			res := Train(m, x, labels, split, TrainConfig{Epochs: 80, LR: 0.02})
			if res.TestAcc < 0.75 {
				t.Errorf("%s test accuracy %.3f < 0.75 (loss %.3f)", kind, res.TestAcc, res.FinalLoss)
			}
			if res.LossHistory[len(res.LossHistory)-1] > res.LossHistory[0] {
				t.Errorf("%s loss did not decrease: %v -> %v", kind, res.LossHistory[0], res.FinalLoss)
			}
		})
	}
}

func TestBackendsProduceIdenticalAggregation(t *testing.T) {
	// The SPTC backend must be bit-compatible with CSR (both are exact;
	// float ordering may differ slightly, so allow tiny tolerance).
	g, x, _ := testSetup(t, 64)
	w := csr.SymNormalized(g)
	opCSR, _ := csrOp(t, w)
	fSPTC := NewFactory(EngineSPTC, pattern.NM(2, 4))
	opSPTC, err := fSPTC.Make(w)
	if err != nil {
		t.Fatal(err)
	}
	a := opCSR.Mul(x)
	b := opSPTC.Mul(x)
	if d := dense.MaxAbsDiff(a, b); d > 1e-4 {
		t.Errorf("backends disagree by %v", d)
	}
	at := opCSR.MulT(x)
	bt := opSPTC.MulT(x)
	if d := dense.MaxAbsDiff(at, bt); d > 1e-4 {
		t.Errorf("transpose backends disagree by %v", d)
	}
}

func TestLedgerAccounting(t *testing.T) {
	g, x, _ := testSetup(t, 32)
	w := csr.SymNormalized(g)
	f := NewFactory(EngineCSR, pattern.NM(2, 4))
	op, err := f.Make(w)
	if err != nil {
		t.Fatal(err)
	}
	m := NewGCN(op, f.Ledger, Config{In: 6, Hidden: 4, Classes: 2, Seed: 1})
	f.Ledger.Reset()
	m.Forward(x)
	if f.Ledger.AggCalls != 2 {
		t.Errorf("GCN forward made %d agg calls, want 2", f.Ledger.AggCalls)
	}
	if f.Ledger.AggCycles <= 0 || f.Ledger.DenseCycles <= 0 {
		t.Errorf("ledger not charged: %+v", f.Ledger)
	}
	total := f.Ledger.Total()
	if total != f.Ledger.AggCycles+f.Ledger.DenseCycles {
		t.Error("Total() mismatch")
	}
	var l2 Ledger
	l2.Add(f.Ledger)
	if l2.AggCalls != 2 {
		t.Error("Add() mismatch")
	}
	f.Ledger.Reset()
	if f.Ledger.AggCalls != 0 {
		t.Error("Reset() failed")
	}
}

func TestSGCCacheBehaviour(t *testing.T) {
	g, x, _ := testSetup(t, 32)
	w := csr.SymNormalized(g)
	f := NewFactory(EngineCSR, pattern.NM(2, 4))
	op, _ := f.Make(w)
	m := NewSGC(op, f.Ledger, Config{In: 6, Classes: 2, Seed: 1})
	m.Forward(x)
	calls := f.Ledger.AggCalls
	if calls != m.Hops {
		t.Errorf("first forward made %d agg calls, want %d", calls, m.Hops)
	}
	m.Forward(x)
	if f.Ledger.AggCalls != calls {
		t.Error("cached forward re-ran aggregation")
	}
	m.InvalidateCache()
	m.Forward(x)
	if f.Ledger.AggCalls != 2*calls {
		t.Error("InvalidateCache did not re-run aggregation")
	}
}

func TestAggregationSpeedupIdenticalResults(t *testing.T) {
	// End-to-end GNN forward: revised (SPTC) and default (CSR) must
	// produce the same logits when built from the same seed — the
	// lossless claim at model level.
	g, x, _ := testSetup(t, 64)
	w := csr.SymNormalized(g)
	fa := NewFactory(EngineCSR, pattern.NM(2, 4))
	opA, _ := fa.Make(w)
	ma := NewGCN(opA, fa.Ledger, Config{In: 6, Hidden: 4, Classes: 2, Seed: 77})
	fb := NewFactory(EngineSPTC, pattern.NM(2, 4))
	opB, err := fb.Make(w)
	if err != nil {
		t.Fatal(err)
	}
	mb := NewGCN(opB, fb.Ledger, Config{In: 6, Hidden: 4, Classes: 2, Seed: 77})
	la := ma.Forward(x)
	lb := mb.Forward(x)
	if d := dense.MaxAbsDiff(la, lb); d > 1e-3 {
		t.Errorf("engines produce different logits: %v", d)
	}
}

func TestRandomSplitDisjointCover(t *testing.T) {
	s := RandomSplit(100, 0.6, 0.2, 1)
	seen := map[int]bool{}
	for _, set := range [][]int{s.Train, s.Val, s.Test} {
		for _, i := range set {
			if seen[i] {
				t.Fatalf("index %d in multiple sets", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 100 {
		t.Errorf("split covers %d of 100", len(seen))
	}
	if len(s.Train) != 60 || len(s.Val) != 20 {
		t.Errorf("split sizes: %d/%d/%d", len(s.Train), len(s.Val), len(s.Test))
	}
}

func TestBuildUnknownKind(t *testing.T) {
	g, _, _ := testSetup(t, 16)
	op, ledger := csrOp(t, csr.SymNormalized(g))
	if _, err := Build(ModelKind("bogus"), op, ledger, Config{In: 2, Hidden: 2, Classes: 2}); err == nil {
		t.Error("want error for unknown kind")
	}
}
