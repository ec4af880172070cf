// Command sogre-spmm benchmarks SpMM on one graph: CSR baseline vs the
// reordered side, sweeping the dense width H — a single-graph slice of
// the paper's Figure 4.
//
// -plan selects the reordered side's dispatch: "hybrid" (default, the
// V:N:M/SPTC kernel after SOGRE reordering), "csr" (the CSR kernel on
// the reordered matrix), or "auto" — the calibrated execution planner
// (internal/plan) picking the kernel class per width from measured
// ns-per-cycle coefficients. -calib names the calibration table file
// for -plan auto: loaded if present, otherwise measured on this
// machine and written, so repeated sweeps replay identical decisions.
//
// Usage:
//
//	sogre-spmm -in graph.mtx [-h 64,128,256,512]
//	sogre-spmm -gen banded -n 2048
//	sogre-spmm -gen er -n 8192 -plan auto -calib calib.txt
//
// -metrics writes an observability snapshot (dispatch counters, tiling
// histograms, reorder spans) as JSON after the sweep; with
// -metrics-canonical the volatile wall-clock fields are zeroed for
// byte-comparable output. -debug-addr serves /debug/metrics,
// /debug/vars and /debug/pprof while the sweep runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/predictor/cycle"
	"repro/internal/resil"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/sptc"
	"repro/internal/venom"
)

func main() {
	in := flag.String("in", "", "input MatrixMarket file (or use -gen)")
	gen := flag.String("gen", "banded", "generator: banded, grid, er, ba, ultrasparse")
	n := flag.Int("n", 2048, "vertex count for -gen")
	seed := flag.Int64("seed", 1, "generator seed")
	hs := flag.String("h", "64,128,256,512", "comma-separated dense widths to sweep")
	workers := flag.Int("workers", 0, "scheduler pool size for the parallel kernels (0 = GOMAXPROCS)")
	metrics := flag.String("metrics", "", "write an obs metrics snapshot to this JSON path (- for stdout)")
	metricsCanonical := flag.Bool("metrics-canonical", false, "canonicalize the -metrics snapshot (zero volatile fields) for byte-comparable output")
	debugAddr := flag.String("debug-addr", "", "serve /debug/metrics, /debug/vars and /debug/pprof on this address while the sweep runs")
	faults := flag.String("faults", "", "fault-injection plan for the tiled kernels, e.g. 'seed=1; crash@tile:3' (see internal/resil); injected tile faults are retried")
	planMode := flag.String("plan", "hybrid", "reordered-side dispatch: hybrid, csr, or auto (calibrated planner)")
	calibPath := flag.String("calib", "", "calibration table file for -plan auto: loaded if present, else measured and written")
	flag.Parse()
	if *planMode != "hybrid" && *planMode != "csr" && *planMode != "auto" {
		fmt.Fprintf(os.Stderr, "sogre-spmm: -plan %q (want hybrid, csr, or auto)\n", *planMode)
		os.Exit(2)
	}
	pool := sched.New(*workers)

	var reg *obs.Registry
	if *metrics != "" || *debugAddr != "" {
		reg = obs.NewRegistry()
		pool = pool.WithObs(reg)
	}
	var inj *resil.Injector
	if *faults != "" {
		fplan, err := resil.ParsePlan(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sogre-spmm: %v\n", err)
			os.Exit(2)
		}
		robs := reg
		if robs == nil {
			robs = obs.NewRegistry()
		}
		inj = resil.NewInjector(fplan, robs)
		pool = pool.WithInjector(inj)
	}
	// runKernel contains a tile panic (an injected crash or a genuine
	// kernel bug) as an error and retries: the tiled kernels are pure, so
	// a recomputed sweep entry is bit-identical.
	runKernel := func(f func()) {
		if inj == nil {
			f()
			return
		}
		err := resil.Retry(resil.RetryPolicy{Backoff: -1}, inj.Obs(), "spmm", func(int) error {
			return resil.Protect(func() error { f(); return nil })
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sogre-spmm: kernel failed after retries: %v\n", err)
			os.Exit(1)
		}
	}
	if *debugAddr != "" {
		srv, err := obs.StartDebug(*debugAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sogre-spmm: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/debug/metrics\n", srv.Addr())
	}

	g, err := loadGraph(*in, *gen, *n, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sogre-spmm: %v\n", err)
		os.Exit(1)
	}
	var widths []int
	for _, s := range strings.Split(*hs, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sogre-spmm: bad width %q\n", s)
			os.Exit(2)
		}
		widths = append(widths, v)
	}

	fmt.Printf("graph: n=%d edges=%d density=%.4f%%\n",
		g.N(), g.NumUndirectedEdges(),
		100*float64(g.NumEdges())/(float64(g.N())*float64(g.N())))
	auto, err := core.AutoReorder(g.ToBitMatrix(), core.AutoOptions{Reorder: core.Options{Obs: reg}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sogre-spmm: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("best format: %v (conforming: %v, reorder time %v)\n",
		auto.Best.Pattern, auto.Best.Conforming(), auto.Best.Elapsed)

	a := csr.FromGraph(g) // baseline runs on the original order
	reordered := csr.FromBitMatrix(auto.Best.Matrix)
	comp, resid, err := venom.SplitToConform(reordered, auto.Best.Pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sogre-spmm: %v\n", err)
		os.Exit(1)
	}
	if resid.NNZ() > 0 {
		fmt.Printf("residual entries outside pattern: %d of %d\n", resid.NNZ(), reordered.NNZ())
	}
	cm := sptc.DefaultCostModel()
	var planner *plan.Planner
	if *planMode == "auto" {
		mcfg := plan.MeasureConfig{
			Seed: *seed, Workers: pool.Workers(),
			Pattern: auto.Best.Pattern, Cost: cm, Autotune: true,
		}
		var cal *plan.Calibration
		if *calibPath != "" {
			cal, err = loadOrMeasureCalib(*calibPath, mcfg)
		} else {
			cal, err = plan.Measure(mcfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sogre-spmm: %v\n", err)
			os.Exit(1)
		}
		planner = &plan.Planner{Calib: cal, Cost: cm}
		fmt.Printf("calibration: %s\n", cal)
	}
	op := plan.Operands{A: reordered, Comp: comp, Resid: resid}
	fmt.Printf("scheduler: %d workers\n", pool.Workers())
	fmt.Printf("%-6s  %-14s  %-14s  %-10s  %-12s  %-12s  %s\n",
		"H", "CSR cycles", "plan cycles", "speedup", "CSR wall", "plan wall", "dispatch")
	for _, h := range widths {
		b := dense.NewMatrix(g.N(), h)
		b.Randomize(1, *seed+int64(h))
		baseStart := time.Now()
		runKernel(func() { spmm.CSR(pool, nil, a, b) })
		baseWall := time.Since(baseStart)
		baseCycles := cm.CSRSpMMCycles(a.NNZ(), a.N, h)
		// The reordered side runs whichever dispatch -plan selected.
		d := plan.Decision{Kernel: cycle.KernelHybrid}
		if *planMode == "csr" {
			d.Kernel = cycle.KernelCSR
		}
		if planner != nil {
			d = planner.ChooseOperands(op, h)
		}
		revStart := time.Now()
		runKernel(func() { plan.Execute(d, pool, op, b, nil) })
		revWall := time.Since(revStart)
		revCycles := cycle.ModelCycles(cm, d.Kernel, op.Profile(h, cm))
		fmt.Printf("%-6d  %-14.0f  %-14.0f  %-10.2f  %-12v  %-12v  %s\n",
			h, baseCycles, revCycles, baseCycles/revCycles,
			baseWall.Round(1000), revWall.Round(1000), d.Kernel)
	}

	if inj != nil {
		snap := inj.Obs().Snapshot()
		for _, k := range []string{"crash", "straggler", "corrupt", "transient"} {
			if v := snap.Counters["resil/injected/"+k]; v > 0 {
				fmt.Printf("injected %s: %d (recovered)\n", k, v)
			}
		}
	}

	if *metrics != "" {
		if err := obs.WriteFile(reg, *metrics, *metricsCanonical); err != nil {
			fmt.Fprintf(os.Stderr, "sogre-spmm: %v\n", err)
			os.Exit(1)
		}
	}
}

// loadOrMeasureCalib resolves -calib: an existing file is parsed and
// pinned, a missing one is measured on this machine and written so
// later sweeps replay the same table.
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

func loadGraph(in, gen string, n int, seed int64) (*graph.Graph, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadMatrixMarket(f)
	}
	return graph.GenerateByName(gen, n, seed)
}
