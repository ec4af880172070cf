package check

import (
	"math"
	"testing"

	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/spmm"
)

// TestParallelSerialEquivalenceRegimes is the scheduler's differential
// matrix: every kernel against its serial reference, bit-for-bit,
// across the density/degree regimes and the {1, 2, 4, NumCPU} worker
// ladder with swept tile-cost targets.
func TestParallelSerialEquivalenceRegimes(t *testing.T) {
	for _, rg := range Regimes() {
		rg := rg
		t.Run(rg.Name, func(t *testing.T) {
			t.Parallel()
			a := rg.RandomCSR(180, 11, true)
			b := RandomDense(a.N, 17, 1, 23)
			for _, p := range testPatterns {
				if err := ParallelEquivalence(a, b, p, nil, nil); err != nil {
					t.Fatalf("pattern %v: %v", p, err)
				}
			}
		})
	}
}

// TestParallelEquivalenceShapeMismatch: malformed operands are
// rejected before any kernel runs.
func TestParallelEquivalenceShapeMismatch(t *testing.T) {
	a := Regimes()[0].RandomCSR(20, 1, false)
	b := RandomDense(21, 4, 1, 2)
	if err := ParallelEquivalence(a, b, pattern.NM(2, 4), nil, nil); err == nil {
		t.Fatal("shape mismatch not rejected")
	}
}

func TestWorkerCountsLadder(t *testing.T) {
	ws := WorkerCounts()
	if len(ws) == 0 || ws[0] != 1 {
		t.Fatalf("WorkerCounts() = %v, want ladder starting at 1", ws)
	}
	seen := map[int]bool{}
	last := 0
	for _, w := range ws {
		if w <= last || seen[w] {
			t.Fatalf("WorkerCounts() = %v not strictly increasing", ws)
		}
		seen[w] = true
		last = w
	}
	for _, want := range []int{1, 2, 4} {
		if !seen[want] {
			t.Fatalf("WorkerCounts() = %v missing %d", ws, want)
		}
	}
}

// TestBitwiseEqualDetectsFlip: the exact oracle reports the first
// flipped bit — including sign-of-zero flips a tolerance check would
// miss.
func TestBitwiseEqualDetectsFlip(t *testing.T) {
	a := RandomDense(3, 3, 1, 1)
	b := a.Clone()
	if err := BitwiseEqual("k", 2, 0, a, b); err != nil {
		t.Fatalf("identical matrices reported unequal: %v", err)
	}
	b.Data[4] = float32(math.Copysign(float64(b.Data[4]), -float64(b.Data[4])))
	err := BitwiseEqual("k", 2, 7, a, b)
	be, ok := err.(*BitwiseError)
	if !ok {
		t.Fatalf("want *BitwiseError, got %v", err)
	}
	if be.Row != 1 || be.Col != 1 || be.Workers != 2 || be.Target != 7 {
		t.Fatalf("BitwiseError located (%d,%d) workers=%d target=%d, want (1,1) 2 7",
			be.Row, be.Col, be.Workers, be.Target)
	}
	c := RandomDense(2, 2, 1, 1)
	if BitwiseEqual("k", 1, 0, a, c) == nil {
		t.Fatal("shape mismatch not reported")
	}
}

// TestMetamorphicWorkerCountInvariance: for a fixed operand the
// kernels are a constant function of worker count — every count on the
// ladder produces the same bits as the serial reference, so in
// particular the same bits as each other.
func TestMetamorphicWorkerCountInvariance(t *testing.T) {
	rg := Regimes()[1]
	a := rg.RandomCSR(240, 3, true)
	b := RandomDense(a.N, 9, 1, 5)
	ref := csrRef(a, b)
	for _, w := range WorkerCounts() {
		got := spmm.CSR(sched.New(w), nil, a, b)
		if err := BitwiseEqual("csr", w, 0, got, ref); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMetamorphicTileSizeInvariance: tile granularity — from one
// element of work per tile up to one tile for the whole matrix — never
// changes the bits. This is the strongest form of the ISSUE's
// determinism contract and holds because heavy rows split along the
// dense-column dimension, never across a row's accumulation order.
func TestMetamorphicTileSizeInvariance(t *testing.T) {
	rg := Regimes()[2]
	a := rg.RandomCSR(150, 9, true)
	b := RandomDense(a.N, 13, 1, 7)
	ref := csrRef(a, b)
	for _, target := range []int64{1, 2, 7, 63, 1024, 1 << 30} {
		got := spmm.CSR(sched.NewWithTarget(3, target), nil, a, b)
		if err := BitwiseEqual("csr", 3, target, got, ref); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTwinsCoverKernelMatrix: every kernel family in the differential
// matrix, and the Plan API, has a serial reference under exact
// verification.
func TestTwinsCoverKernelMatrix(t *testing.T) {
	names := map[string]bool{}
	for _, tw := range Twins() {
		names[tw.Name] = true
	}
	for _, want := range []string{"csr", "vnm", "vnm-sptc-hybrid", "plan", "bsr", "spmv"} {
		if !names[want] {
			t.Fatalf("Twins() missing %q (have %v)", want, names)
		}
	}
}
