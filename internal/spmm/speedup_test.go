// Speedup acceptance gate (ISSUE 2): on a >= 100k-edge regime graph
// with at least 4 schedulable CPUs, the CSR and SPTC-hybrid kernels on
// a 4+-worker pool must beat the same kernels on a pool of one by >= 2x
// wall-clock. The test
// is benchmark-backed (best-of-N timing on both sides) and skips on
// machines that cannot host 4 workers, where the contract is vacuous.
package spmm_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/csr"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/venom"
)

// bestOf returns fn's minimum wall time over n runs after a warmup.
func bestOf(n int, fn func()) time.Duration {
	fn()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func TestParallelSpeedupLargeGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		t.Skipf("speedup contract requires GOMAXPROCS >= 4, have %d", procs)
	}
	// Uniform-random regime, ~131k undirected edges (>= the 100k-edge
	// floor the acceptance criterion names).
	g, err := datasets.Family("er", 1<<15, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if edges := g.NumUndirectedEdges(); edges < 100_000 {
		t.Fatalf("regime graph has %d edges, need >= 100k", edges)
	}
	a := csr.FromGraph(g)
	b := dense.NewMatrix(a.N, 64)
	b.Randomize(1, 7)
	pool := sched.New(procs)

	serial := sched.Serial()
	serialCSR := bestOf(3, func() { spmm.CSR(serial, nil, a, b) })
	parallelCSR := bestOf(3, func() { spmm.CSR(pool, nil, a, b) })
	// The acceptance bar is 2x at >= 4 workers; near-linear scaling
	// leaves generous margin above it.
	if speedup := float64(serialCSR) / float64(parallelCSR); speedup < 2 {
		t.Errorf("parallel CSR speedup %.2fx (serial %v, parallel %v), want >= 2x at %d workers",
			speedup, serialCSR, parallelCSR, procs)
	}

	comp, resid, err := venom.SplitToConform(a, pattern.New(4, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	serialHyb := bestOf(3, func() { spmm.Hybrid(serial, nil, nil, comp, resid, b) })
	parallelHyb := bestOf(3, func() { spmm.Hybrid(pool, nil, nil, comp, resid, b) })
	if speedup := float64(serialHyb) / float64(parallelHyb); speedup < 2 {
		t.Errorf("parallel SPTC-hybrid speedup %.2fx (serial %v, parallel %v), want >= 2x at %d workers",
			speedup, serialHyb, parallelHyb, procs)
	}
}

// benchOperands builds the shared benchmark operands once.
func benchOperands(b *testing.B) (*csr.Matrix, *venom.Matrix, *csr.Matrix, *dense.Matrix) {
	b.Helper()
	g, err := datasets.Family("er", 4096, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	a := csr.FromGraph(g)
	comp, resid, err := venom.SplitToConform(a, pattern.New(4, 2, 8))
	if err != nil {
		b.Fatal(err)
	}
	x := dense.NewMatrix(a.N, 64)
	x.Randomize(1, 5)
	return a, comp, resid, x
}

func BenchmarkCSRWorkers1(b *testing.B) {
	a, _, _, x := benchOperands(b)
	pool := sched.Serial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmm.CSR(pool, nil, a, x)
	}
}

func BenchmarkCSRWorkersAll(b *testing.B) {
	a, _, _, x := benchOperands(b)
	pool := sched.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmm.CSR(pool, nil, a, x)
	}
}

func BenchmarkHybridWorkers1(b *testing.B) {
	_, comp, resid, x := benchOperands(b)
	pool := sched.Serial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmm.Hybrid(pool, nil, nil, comp, resid, x)
	}
}

func BenchmarkHybridWorkersAll(b *testing.B) {
	_, comp, resid, x := benchOperands(b)
	pool := sched.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmm.Hybrid(pool, nil, nil, comp, resid, x)
	}
}

func BenchmarkSpMVWorkersAll(b *testing.B) {
	a, _, _, x := benchOperands(b)
	v := make([]float32, a.N)
	for i := range v {
		v[i] = x.At(i, 0)
	}
	pool := sched.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmm.SpMV(pool, a, v)
	}
}
