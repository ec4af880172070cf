// Race hammer tests: every kernel is driven from many concurrent
// callers sharing one pool and one set of read-only operands, and every
// concurrently produced result must still equal the same kernel's
// result on a pool of one bitwise. Run under -race (scripts/ci.sh does,
// at both default GOMAXPROCS and GOMAXPROCS=2) these tests prove the
// scheduler and the kernels share no mutable state across calls.
package spmm_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/bsr"
	"repro/internal/csr"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/venom"
)

// hammerCallers is how many goroutines invoke each kernel at once —
// deliberately more than any plausible GOMAXPROCS so callers overlap
// even on wide machines.
const hammerCallers = 8

// raceOperands builds one shared operand set for the hammer tests.
func raceOperands(t *testing.T) (*csr.Matrix, *venom.Matrix, *csr.Matrix, *dense.Matrix) {
	t.Helper()
	g, err := datasets.Family("powerlaw", 600, 7, 11)
	if err != nil {
		t.Fatal(err)
	}
	a := csr.FromGraph(g)
	comp, resid, err := venom.SplitToConform(a, pattern.New(4, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	b := dense.NewMatrix(a.N, 19)
	b.Randomize(1, 13)
	return a, comp, resid, b
}

// hammer runs fn from hammerCallers goroutines simultaneously, several
// iterations each, and verifies every returned matrix bitwise against
// want.
func hammer(t *testing.T, name string, want *dense.Matrix, fn func() *dense.Matrix) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan string, hammerCallers)
	for c := 0; c < hammerCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				got := fn()
				for i, v := range got.Data {
					if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
						select {
						case errs <- name + ": concurrent result diverges from the pool-of-one result":
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRaceParallelKernels hammers every SpMM entry point on a shared pool.
func TestRaceParallelKernels(t *testing.T) {
	a, comp, resid, b := raceOperands(t)
	// One pool shared by all callers, wider than GOMAXPROCS to force
	// worker multiplexing.
	pool := sched.New(4)

	t.Run("csr", func(t *testing.T) {
		want := spmm.CSR(sched.Serial(), nil, a, b)
		hammer(t, "CSR", want, func() *dense.Matrix { return spmm.CSR(pool, nil, a, b) })
	})
	t.Run("vnm", func(t *testing.T) {
		want := spmm.VNM(sched.Serial(), nil, comp, b)
		hammer(t, "VNM", want, func() *dense.Matrix { return spmm.VNM(pool, nil, comp, b) })
	})
	t.Run("hybrid", func(t *testing.T) {
		want := spmm.Hybrid(sched.Serial(), nil, nil, comp, resid, b)
		hammer(t, "Hybrid", want, func() *dense.Matrix {
			return spmm.Hybrid(pool, nil, nil, comp, resid, b)
		})
	})
	t.Run("bsr", func(t *testing.T) {
		bm, err := bsr.FromBitMatrix(a.ToBitMatrix(), 8)
		if err != nil {
			t.Fatal(err)
		}
		want := spmm.BSR(sched.Serial(), bm, b)
		hammer(t, "BSR", want, func() *dense.Matrix { return spmm.BSR(pool, bm, b) })
	})
}

// TestRaceSpMV hammers the parallel SpMV (vector) kernel.
func TestRaceSpMV(t *testing.T) {
	a, _, _, b := raceOperands(t)
	x := make([]float32, a.N)
	for i := range x {
		x[i] = b.At(i, 0)
	}
	pool := sched.New(4)
	want := spmm.SpMV(sched.Serial(), a, x)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var fail bool
	for c := 0; c < hammerCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				got := spmm.SpMV(pool, a, x)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						mu.Lock()
						fail = true
						mu.Unlock()
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if fail {
		t.Error("concurrent SpMV diverges from its pool-of-one result")
	}
}

// TestRaceTraceVNM hammers the parallel V:N:M trace analysis, whose
// serial predecessor kept per-call scratch that must not have become
// shared state in the parallel rewrite.
func TestRaceTraceVNM(t *testing.T) {
	_, comp, _, _ := raceOperands(t)
	pool := sched.New(4)
	want := spmm.TraceVNM(pool, comp)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var fail bool
	for c := 0; c < hammerCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				if spmm.TraceVNM(pool, comp) != want {
					mu.Lock()
					fail = true
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if fail {
		t.Error("concurrent TraceVNM runs disagree")
	}
}
