// Command sogre-verify is a self-check harness: it runs the shared
// internal/check oracles — the same differential kernel matrix and
// invariant checkers the test suite and fuzz targets use — on freshly
// generated random inputs drawn from the dataset regimes and reports
// pass/fail.
//
//  1. Losslessness: every reordering is a bijective renumbering that
//     preserves the edge multiset (certified isomorphism).
//  2. Kernel equivalence: dense reference, serial/parallel CSR, BSR
//     and the compressed-SPTC hybrid agree under the float32 policy.
//  3. Round trips: compress/decompress identity, split-to-conform
//     reassembly, compressed-metadata validity.
//  4. Cost-model sanity: nonnegative, monotone in work volume.
//  5. Partitioned execution: §4.4 reorder-back accumulation is exact.
//  6. Score equivalence: the word-at-a-time conformity scores equal the
//     per-segment reference at every worker count.
//
// Usage: sogre-verify [-trials 5] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/sptc"
	"repro/internal/venom"
)

var patterns = []pattern.VNM{pattern.NM(2, 4), pattern.New(4, 2, 8), pattern.New(16, 2, 16)}

func main() {
	trials := flag.Int("trials", 5, "random trials per check")
	seed := flag.Int64("seed", 1, "base seed")
	flag.Parse()
	if *trials < 1 {
		fmt.Fprintf(os.Stderr, "sogre-verify: -trials %d checks nothing (need >= 1)\n", *trials)
		os.Exit(2)
	}

	failed := 0
	run := func(name string, fn func(seed int64) error) {
		for t := 0; t < *trials; t++ {
			if err := fn(*seed + int64(t)*7919); err != nil {
				fmt.Printf("FAIL  %-34s trial %d: %v\n", name, t, err)
				failed++
				return
			}
		}
		fmt.Printf("ok    %-34s (%d trials)\n", name, *trials)
	}

	run("reorder-lossless", checkReorder)
	run("kernel-equivalence", checkKernels)
	run("compress-roundtrip", checkCompressRoundTrip)
	run("split-reassembly", checkSplit)
	run("cost-model-sanity", func(int64) error { return check.CostModelSane(sptc.DefaultCostModel()) })
	run("partitioned-accumulation", checkPartitioned)
	run("score-equivalence", checkScores)

	if failed > 0 {
		fmt.Printf("%d check(s) FAILED\n", failed)
		os.Exit(1)
	}
	fmt.Println("all checks passed")
}

// regime cycles deterministically through the dataset regimes.
func regime(seed int64) check.Regime {
	rs := check.Regimes()
	return rs[int(((seed%int64(len(rs)))+int64(len(rs))))%len(rs)]
}

func randomGraph(seed int64) *graph.Graph {
	return regime(seed).RandomGraph(200+int(seed%191), seed)
}

func checkReorder(seed int64) error {
	g := randomGraph(seed)
	res, err := core.Reorder(g.ToBitMatrix(), pattern.NM(2, 4), core.Options{})
	if err != nil {
		return err
	}
	return check.ReorderLossless(g, res)
}

func checkKernels(seed int64) error {
	a := regime(seed).RandomCSR(200+int(seed%191), seed, seed%2 == 0)
	b := check.RandomDense(a.N, 17, 1, seed)
	for _, p := range patterns {
		if err := check.SpMMEquivalence(a, b, p, check.DefaultTol()); err != nil {
			return err
		}
	}
	return nil
}

func checkCompressRoundTrip(seed int64) error {
	a := regime(seed).RandomCSR(160+int(seed%97), seed, true)
	for _, p := range patterns {
		pruned, _, err := venom.PruneToConform(a, p)
		if err != nil {
			return err
		}
		if err := check.CompressRoundTrip(pruned, p); err != nil {
			return err
		}
	}
	return nil
}

func checkSplit(seed int64) error {
	a := regime(seed).RandomCSR(160+int(seed%97), seed, true)
	for _, p := range patterns {
		if err := check.SplitReassembly(a, p); err != nil {
			return err
		}
	}
	return nil
}

func checkPartitioned(seed int64) error {
	g := randomGraph(seed)
	b := dense.NewMatrix(g.N(), 7)
	b.Randomize(1, seed+3)
	got, _, err := distributed.PartitionedSpMM(g, b, 100, pattern.NM(2, 4), core.Options{MaxIter: 2})
	if err != nil {
		return err
	}
	a := csr.FromGraph(g)
	return check.Compare("partitioned-spmm", got, spmm.CSR(sched.Default(), nil, a, b), a, b, check.DefaultTol())
}

func checkScores(seed int64) error {
	m := randomGraph(seed).ToBitMatrix()
	for _, p := range patterns {
		if err := check.ScoreEquivalence(m, p, []int{1, 2}); err != nil {
			return err
		}
	}
	return nil
}
