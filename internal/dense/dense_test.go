package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float32, tol float64) bool {
	return math.Abs(float64(a-b)) <= tol
}

func TestMatMulSmall(t *testing.T) {
	a := FromData(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromData(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if !almostEqual(c.Data[i], w, 1e-5) {
			t.Errorf("C[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(8, 8)
	a.Randomize(1, 2)
	id := NewMatrix(8, 8)
	for i := 0; i < 8; i++ {
		id.Set(i, i, 1)
	}
	c := MatMul(a, id)
	if MaxAbsDiff(a, c) > 1e-6 {
		t.Error("A x I != A")
	}
	_ = rng
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestTranspose(t *testing.T) {
	a := FromData(2, 3, []float32{1, 2, 3, 4, 5, 6})
	at := Transpose(a)
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape %dx%d", at.Rows, at.Cols)
	}
	if at.At(0, 1) != 4 || at.At(2, 0) != 3 {
		t.Error("transpose values wrong")
	}
	// (Aᵀ)ᵀ == A
	if MaxAbsDiff(Transpose(at), a) != 0 {
		t.Error("double transpose differs")
	}
}

func TestTransposeMatMulProperty(t *testing.T) {
	// (AB)ᵀ == BᵀAᵀ
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 2+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(6)
		a := NewMatrix(r, k)
		a.Randomize(1, seed)
		b := NewMatrix(k, c)
		b.Randomize(1, seed+1)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		return MaxAbsDiff(lhs, rhs) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAddScaleBias(t *testing.T) {
	a := FromData(2, 2, []float32{1, 2, 3, 4})
	b := FromData(2, 2, []float32{10, 20, 30, 40})
	a.Add(b)
	if a.At(1, 1) != 44 {
		t.Error("Add wrong")
	}
	a.Scale(0.5)
	if a.At(0, 0) != 5.5 {
		t.Error("Scale wrong")
	}
	a.AddScaled(b, 0.1)
	if !almostEqual(a.At(0, 1), 11+2, 1e-5) {
		t.Errorf("AddScaled wrong: %v", a.At(0, 1))
	}
	a.AddBias([]float32{100, 200})
	if !almostEqual(a.At(1, 0), 119.5, 1e-4) {
		t.Errorf("AddBias wrong: %v", a.At(1, 0))
	}
}

func TestReLUAndMask(t *testing.T) {
	m := FromData(1, 4, []float32{-1, 2, 0, 3})
	mask := ReLU(m)
	want := []float32{0, 2, 0, 3}
	for i, w := range want {
		if m.Data[i] != w {
			t.Errorf("ReLU[%d] = %v, want %v", i, m.Data[i], w)
		}
	}
	g := FromData(1, 4, []float32{5, 5, 5, 5})
	g.MulMask(mask)
	wantG := []float32{0, 5, 0, 5}
	for i, w := range wantG {
		if g.Data[i] != w {
			t.Errorf("masked grad[%d] = %v, want %v", i, g.Data[i], w)
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromData(2, 3, []float32{1, 2, 3, 1000, 1000, 1000})
	SoftmaxRows(m)
	for i := 0; i < 2; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Errorf("softmax out of range: %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	if !(m.At(0, 2) > m.At(0, 1) && m.At(0, 1) > m.At(0, 0)) {
		t.Error("softmax not monotone")
	}
	// Large-value row must not produce NaN.
	if math.IsNaN(float64(m.At(1, 0))) {
		t.Error("softmax NaN on large inputs")
	}
}

func TestCrossEntropy(t *testing.T) {
	probs := FromData(2, 2, []float32{0.9, 0.1, 0.2, 0.8})
	labels := []int{0, 1}
	loss, grad := CrossEntropy(probs, labels, []int{0, 1})
	wantLoss := -(math.Log(0.9) + math.Log(0.8)) / 2
	if math.Abs(loss-wantLoss) > 1e-6 {
		t.Errorf("loss = %v, want %v", loss, wantLoss)
	}
	// grad = (p - onehot)/n
	if !almostEqual(grad.At(0, 0), float32((0.9-1)/2), 1e-6) {
		t.Errorf("grad wrong: %v", grad.At(0, 0))
	}
	// Masked rows get zero grad.
	_, grad2 := CrossEntropy(probs, labels, []int{1})
	if grad2.At(0, 0) != 0 || grad2.At(0, 1) != 0 {
		t.Error("masked row has nonzero grad")
	}
}

func TestArgmaxAccuracy(t *testing.T) {
	logits := FromData(3, 2, []float32{0.9, 0.1, 0.2, 0.8, 0.6, 0.4})
	labels := []int{0, 1, 1}
	pred := Argmax(logits)
	if pred[0] != 0 || pred[1] != 1 || pred[2] != 0 {
		t.Errorf("Argmax = %v", pred)
	}
	acc := Accuracy(logits, labels, []int{0, 1, 2})
	if math.Abs(acc-2.0/3.0) > 1e-9 {
		t.Errorf("Accuracy = %v", acc)
	}
	if Accuracy(logits, labels, nil) != 0 {
		t.Error("empty idx accuracy should be 0")
	}
}

func TestAdamReducesLoss(t *testing.T) {
	// Minimize ||W - target||² with Adam; loss must drop monotonically
	// overall.
	target := NewMatrix(4, 4)
	target.Randomize(1, 3)
	w := NewMatrix(4, 4)
	opt := NewAdam(0.05)
	lossAt := func() float64 {
		var s float64
		for i := range w.Data {
			d := float64(w.Data[i] - target.Data[i])
			s += d * d
		}
		return s
	}
	before := lossAt()
	for step := 0; step < 200; step++ {
		grad := NewMatrix(4, 4)
		for i := range grad.Data {
			grad.Data[i] = 2 * (w.Data[i] - target.Data[i])
		}
		opt.Step([]*Matrix{w}, []*Matrix{grad})
	}
	after := lossAt()
	if after > before/100 {
		t.Errorf("Adam failed to converge: %v -> %v", before, after)
	}
}

func TestSGDStep(t *testing.T) {
	w := FromData(1, 2, []float32{1, 1})
	g := FromData(1, 2, []float32{0.5, -0.5})
	(&SGD{LR: 0.1}).Step([]*Matrix{w}, []*Matrix{g})
	if !almostEqual(w.At(0, 0), 0.95, 1e-6) || !almostEqual(w.At(0, 1), 1.05, 1e-6) {
		t.Errorf("SGD step wrong: %v", w.Data)
	}
}

func TestFromDataPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	FromData(2, 2, []float32{1})
}

func BenchmarkMatMul256(b *testing.B) {
	a := NewMatrix(256, 256)
	a.Randomize(1, 1)
	c := NewMatrix(256, 256)
	c.Randomize(1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(a, c)
	}
}
