// Command sogre-bench runs the reproducible benchmark suites and
// writes the performance-trajectory artifacts tracked across PRs.
//
// The spmm suite (default) times the CSR and V:N:M/SPTC hybrid
// kernels on a pool of one and on the -workers pool over seeded regime
// graphs, writing BENCH_spmm.json with ns/op, measured GFLOP/s,
// effective FLOP-per-cycle under the calibrated cycle model, and
// speedup versus the pool of one.
//
// The reorder suite times the parallel partitioned reordering engine
// (core.ReorderLarge) at several worker counts, writing
// BENCH_reorder.json with reorder wall-clock, partitions/sec,
// improvement rate, and the amortization break-even metric (reorder
// cost divided by the per-epoch SpMM cycle savings the reordering
// buys). The permutation digest is verified identical across worker
// counts before any row is emitted.
//
// The dynamic suite applies seeded single-edge mutation streams to an
// incrementally-maintained reordering (internal/dyn), writing
// BENCH_dynamic.json with the per-mutation localized-repair wall-clock
// against a full from-scratch re-reorder of the mutated graph, plus
// the repair/rebuild trajectory under the staleness budget.
//
// The serve suite drives the in-process inference server
// (internal/serve) with seeded closed-loop clients at several client
// counts, coalescing on and forced off, writing BENCH_serve.json with
// p50/p99 request latency, saturation throughput, the realized
// batch-size distribution, and a per-row response-set checksum that
// must match between the batched and singleton rows (and across
// runs) — the serving layer's bit-purity claim, re-checked at bench
// time.
//
// The mutate suite prices the durable online-mutation path
// (internal/wal + serve.Mutate, DESIGN.md §15), writing
// BENCH_mutate.json with WAL commit latency (group commit vs fsync per
// record), boot-time WAL replay wall-clock as a function of log
// length, and read p50/p99 under a concurrent mutation burst against
// the same reads on a quiescent engine — the recorded form of the
// "reads stay live while mutations land" claim.
//
// The dist suite measures the multi-process distribution layer
// (internal/distributed + internal/shard), writing BENCH_dist.json
// with (a) a serialization row racing graph generation against loading
// the same graph from its sogre-shard/v1 binary encoding (the speedup
// column is the "is binary load worth it" answer), and (b) one
// execution row per loopback worker count, each embedding the
// in-process and distributed result checksums — equal by construction,
// re-verified at bench time.
//
// Usage:
//
//	sogre-bench [-suite spmm] [-seed 20250806] [-out BENCH_spmm.json]
//	            [-widths 64,128] [-repeats 3] [-workers 0] [-calib FILE]
//	sogre-bench -suite reorder [-seed 20250806] [-out BENCH_reorder.json]
//	            [-repeats 2]
//	sogre-bench -suite dynamic [-seed 20250806] [-out BENCH_dynamic.json]
//	            [-repeats 3] [-canonical]
//	sogre-bench -suite serve [-seed 20250806] [-out BENCH_serve.json]
//	            [-repeats 3] [-canonical]
//	sogre-bench -suite dist [-seed 20250806] [-out BENCH_dist.json]
//	            [-repeats 3] [-canonical] [-fixture-dir DIR]
//	sogre-bench -suite mutate [-seed 20250806] [-out BENCH_mutate.json]
//	            [-repeats 3] [-canonical]
//
// The spmm suite also emits one planner row per (graph, width): the
// calibrated execution planner (internal/plan) choosing among the four
// static kernels, with its choice, predicted ns and wall-clock ratio
// to the best static kernel. -calib pins the calibration table: an
// existing file is loaded, a missing one is measured on this machine
// and written, so later runs replay the identical decisions.
//
// With a fixed -seed and a pinned -calib, everything in either JSON
// except the timing fields is byte-identical across runs (tested in
// internal/bench).
//
// -metrics writes an observability snapshot (kernel dispatch counters,
// tiling histograms, reorder spans) as JSON after the suite; with
// -metrics-canonical the volatile wall-clock fields are zeroed for
// byte-comparable output. -debug-addr serves /debug/metrics,
// /debug/vars and /debug/pprof while the suite runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/plan"
)

func main() {
	suiteName := flag.String("suite", "spmm", "benchmark suite: spmm, reorder, dynamic, serve, dist or mutate")
	seed := flag.Int64("seed", 20250806, "operand generator seed")
	out := flag.String("out", "", "output JSON path (- for stdout; default BENCH_<suite>.json)")
	widths := flag.String("widths", "64,128", "comma-separated dense widths (spmm suite)")
	repeats := flag.Int("repeats", 0, "timing repetitions per measurement, best wins (0 = suite default)")
	workers := flag.Int("workers", 0, "parallel pool size for the spmm suite (0 = GOMAXPROCS)")
	calibPath := flag.String("calib", "", "planner calibration table file for the spmm suite: loaded if present, else measured and written (empty = measure fresh, unpinned)")
	canonical := flag.Bool("canonical", false, "emit the canonical suite projection (timing fields zeroed) for byte-comparable output (spmm and dynamic suites)")
	fixtureDir := flag.String("fixture-dir", "", "graph fixture cache directory for the dist suite (empty = fresh temp dir)")
	metrics := flag.String("metrics", "", "write an obs metrics snapshot to this JSON path (- for stdout)")
	metricsCanonical := flag.Bool("metrics-canonical", false, "canonicalize the -metrics snapshot (zero volatile fields) for byte-comparable output")
	debugAddr := flag.String("debug-addr", "", "serve /debug/metrics, /debug/vars and /debug/pprof on this address while the suite runs")
	flag.Parse()

	var reg *obs.Registry
	if *metrics != "" || *debugAddr != "" {
		reg = obs.NewRegistry()
	}
	if *debugAddr != "" {
		srv, err := obs.StartDebug(*debugAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sogre-bench: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/debug/metrics\n", srv.Addr())
	}

	var data []byte
	var summary string
	var err error
	switch *suiteName {
	case "spmm":
		data, summary, err = runSpMM(*seed, *widths, *repeats, *workers, *calibPath, *canonical, reg)
	case "reorder":
		data, summary, err = runReorder(*seed, *repeats, reg)
	case "dynamic":
		data, summary, err = runDynamic(*seed, *repeats, *canonical, reg)
	case "serve":
		data, summary, err = runServe(*seed, *repeats, *canonical)
	case "dist":
		data, summary, err = runDist(*seed, *repeats, *canonical, *fixtureDir)
	case "mutate":
		data, summary, err = runMutate(*seed, *repeats, *canonical)
	default:
		fmt.Fprintf(os.Stderr, "sogre-bench: unknown suite %q (want spmm, reorder, dynamic, serve, dist or mutate)\n", *suiteName)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sogre-bench: %v\n", err)
		os.Exit(1)
	}
	if *metrics != "" {
		if err := obs.WriteFile(reg, *metrics, *metricsCanonical); err != nil {
			fmt.Fprintf(os.Stderr, "sogre-bench: %v\n", err)
			os.Exit(1)
		}
	}

	path := *out
	if path == "" {
		path = "BENCH_" + *suiteName + ".json"
	}
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "sogre-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%s)\n", path, summary)
}

// loadOrMeasureCalib resolves the -calib flag: an existing file is
// parsed and pinned, a missing one is measured on this machine and
// written so later runs replay the same table.
func loadOrMeasureCalib(path string, cfg plan.MeasureConfig) (*plan.Calibration, error) {
	raw, err := os.ReadFile(path)
	if err == nil {
		cal, perr := plan.ParseCalibration(string(raw))
		if perr != nil {
			return nil, fmt.Errorf("calibration file %s: %w", path, perr)
		}
		if cal == nil {
			return nil, fmt.Errorf("calibration file %s is empty", path)
		}
		return cal, nil
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	cal, err := plan.Measure(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, []byte(cal.String()+"\n"), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "measured calibration written to %s\n", path)
	return cal, nil
}

func runSpMM(seed int64, widths string, repeats, workers int, calibPath string, canonical bool, reg *obs.Registry) ([]byte, string, error) {
	cfg := bench.DefaultConfig()
	cfg.Seed = seed
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	cfg.Workers = workers
	cfg.Obs = reg
	cfg.Widths = nil
	for _, s := range strings.Split(widths, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			return nil, "", fmt.Errorf("bad width %q", s)
		}
		cfg.Widths = append(cfg.Widths, v)
	}
	if calibPath != "" {
		cal, err := loadOrMeasureCalib(calibPath, plan.MeasureConfig{
			Seed: seed, Workers: workers, Pattern: cfg.Pattern, Repeats: cfg.Repeats, Autotune: true,
		})
		if err != nil {
			return nil, "", err
		}
		cfg.Calib = cal
	}

	suite, err := bench.Run(cfg)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("%-14s %-6s %-16s %-8s %10s %9s %9s %9s  %s\n",
		"graph", "H", "kernel", "workers", "ns/op", "GFLOP/s", "f/cycle", "speedup", "choice")
	for _, r := range suite.Results {
		extra := ""
		if r.Kernel == "planner" {
			extra = fmt.Sprintf("%s (vs best static %.2f)", r.Choice, r.VsBestStatic)
		}
		fmt.Printf("%-14s %-6d %-16s %-8d %10.0f %9.3f %9.3f %9.2f  %s\n",
			r.Graph, r.H, r.Kernel, r.Workers, r.NsPerOp, r.GFLOPS, r.ModelFLOPPerCycle, r.SpeedupVsSerial, extra)
	}
	if canonical {
		suite = bench.Canonical(suite)
	}
	data, err := suite.JSON()
	if err != nil {
		return nil, "", err
	}
	return data, fmt.Sprintf("%d results, seed %d, %d workers", len(suite.Results), suite.Seed, suite.Workers), nil
}

func runReorder(seed int64, repeats int, reg *obs.Registry) ([]byte, string, error) {
	cfg := bench.DefaultReorderConfig()
	cfg.Seed = seed
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	cfg.Obs = reg

	suite, err := bench.RunReorder(cfg)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("%-14s %-6s %-8s %12s %10s %9s %9s %11s\n",
		"graph", "parts", "workers", "reorder ns", "parts/s", "imprv", "speedup", "break-even")
	for _, r := range suite.Results {
		fmt.Printf("%-14s %-6d %-8d %12.0f %10.1f %8.2f%% %9.2f %11.2f\n",
			r.Graph, r.Partitions, r.Workers, r.ReorderNs, r.PartitionsPerSec,
			r.ImprovementRate*100, r.SpeedupVsSerial, r.BreakEvenEpochs)
	}
	data, err := suite.JSON()
	if err != nil {
		return nil, "", err
	}
	return data, fmt.Sprintf("%d results, seed %d", len(suite.Results), suite.Seed), nil
}

func runServe(seed int64, repeats int, canonical bool) ([]byte, string, error) {
	cfg := bench.DefaultServeConfig()
	cfg.Seed = seed
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	suite, err := bench.RunServe(cfg)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("%-8s %-10s %-9s %12s %12s %10s %11s %9s  %s\n",
		"clients", "coalesce", "requests", "p50 ns", "p99 ns", "req/s", "batch mean", "batch max", "checksum")
	for _, r := range suite.Results {
		fmt.Printf("%-8d %-10s %-9d %12.0f %12.0f %10.1f %11.2f %9d  %s\n",
			r.Clients, r.Coalesce, r.Requests, r.P50Ns, r.P99Ns, r.ThroughputRPS,
			r.BatchMean, r.BatchMax, r.Checksum)
	}
	if canonical {
		suite = bench.CanonicalServe(suite)
	}
	data, err := suite.JSON()
	if err != nil {
		return nil, "", err
	}
	return data, fmt.Sprintf("%d results, seed %d", len(suite.Results), suite.Seed), nil
}

func runDist(seed int64, repeats int, canonical bool, fixtureDir string) ([]byte, string, error) {
	cfg := bench.DefaultDistConfig()
	cfg.Seed = seed
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	cfg.FixtureDir = fixtureDir
	suite, err := bench.RunDist(cfg)
	if err != nil {
		return nil, "", err
	}
	for _, r := range suite.Serialization {
		fmt.Printf("serialize %-8s n=%-8d arcs=%-8d bytes=%-9d gen=%.1fms load=%.1fms speedup=%.1fx\n",
			r.Family, r.N, r.Arcs, r.Bytes, r.GenNs/1e6, r.LoadNs/1e6, r.Speedup)
	}
	fmt.Printf("%-8s %-11s %14s %14s  %s\n", "workers", "partitions", "inproc ns", "dist ns", "checksums")
	for _, r := range suite.Exec {
		fmt.Printf("%-8d %-11d %14.0f %14.0f  %s == %s\n",
			r.Workers, r.Partitions, r.InProcNs, r.DistNs, r.InProcChecksum, r.DistChecksum)
	}
	if canonical {
		suite = bench.CanonicalDist(suite)
	}
	data, err := suite.JSON()
	if err != nil {
		return nil, "", err
	}
	return data, fmt.Sprintf("%d exec rows, seed %d", len(suite.Exec), suite.Seed), nil
}

func runDynamic(seed int64, repeats int, canonical bool, reg *obs.Registry) ([]byte, string, error) {
	cfg := bench.DefaultDynamicConfig()
	cfg.Seed = seed
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	cfg.Obs = reg

	suite, err := bench.RunDynamic(cfg)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("%-14s %-10s %-8s %-8s %-8s %14s %14s %9s\n",
		"graph", "mutations", "repairs", "swaps", "rebuilds", "repair ns/mut", "scratch ns", "speedup")
	for _, r := range suite.Results {
		fmt.Printf("%-14s %-10d %-8d %-8d %-8d %14.0f %14.0f %9.1f\n",
			r.Graph, r.Mutations, r.Repairs, r.RepairSwaps, r.Rebuilds,
			r.RepairNsPerMutation, r.ScratchReorderNs, r.RepairSpeedup)
	}
	if canonical {
		suite = bench.CanonicalDynamic(suite)
	}
	data, err := suite.JSON()
	if err != nil {
		return nil, "", err
	}
	return data, fmt.Sprintf("%d results, seed %d", len(suite.Results), suite.Seed), nil
}

func runMutate(seed int64, repeats int, canonical bool) ([]byte, string, error) {
	cfg := bench.DefaultMutateConfig()
	cfg.Seed = seed
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	suite, err := bench.RunMutate(cfg)
	if err != nil {
		return nil, "", err
	}
	for _, r := range suite.Commit {
		fmt.Printf("commit   %-11s records=%-5d group=%-4d bytes=%-8d ns/record=%.0f\n",
			r.Mode, r.Records, r.Group, r.Bytes, r.NsPerRecord)
	}
	for _, r := range suite.Recovery {
		fmt.Printf("recovery batches=%-5d bytes=%-8d replay=%.2fms ns/batch=%.0f\n",
			r.Batches, r.WALBytes, r.ReplayNs/1e6, r.NsPerBatch)
	}
	for _, r := range suite.Reads {
		extra := ""
		if r.BurstSlowdown > 0 {
			extra = fmt.Sprintf(" slowdown=%.2fx", r.BurstSlowdown)
		}
		fmt.Printf("reads    %-15s readers=%-3d requests=%-5d epoch=%-4d p50=%.0fns p99=%.0fns%s\n",
			r.Scenario, r.Readers, r.Requests, r.FinalEpoch, r.P50Ns, r.P99Ns, extra)
	}
	if canonical {
		suite = bench.CanonicalMutate(suite)
	}
	data, err := suite.JSON()
	if err != nil {
		return nil, "", err
	}
	return data, fmt.Sprintf("%d commit, %d recovery, %d read rows, seed %d",
		len(suite.Commit), len(suite.Recovery), len(suite.Reads), suite.Seed), nil
}
