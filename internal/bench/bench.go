// Package bench is the reproducible SpMM benchmark harness behind
// cmd/sogre-bench: it times every kernel on a pool of one and on the
// parallel pool over seeded regime graphs and emits a
// machine-readable suite (BENCH_spmm.json) so the performance
// trajectory is tracked from PR 2 onward.
//
// Reproducibility contract: for a fixed Config with a pinned
// calibration table, everything in the suite except the timing-derived
// fields (ns_per_op, gflops, speedup_vs_serial, vs_best_static) is
// byte-identical across runs — operands are seeded, kernels are
// bit-deterministic, the modeled cycle counts are pure functions of
// the operands, and planner decisions are pure functions of (profile,
// table). Canonical zeroes the timing fields; the determinism test
// asserts two runs agree canonically. When Config.Calib is nil, Run
// measures a fresh table (recorded in the suite's calib field), and
// the planner rows' choice/predicted_ns inherit that measurement's
// run-to-run variance — pin a table for diffable output.
package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/csr"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/predictor/cycle"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// Schema identifies the JSON layout; bump on breaking changes so
// trajectory tooling can refuse mixed files. v2 added the planner rows
// (kernel "planner" with choice/predicted_ns/vs_best_static), the
// per-result gomaxprocs field, and the suite-level calibration table.
const Schema = "sogre-bench/v2"

// GraphSpec names one seeded benchmark operand drawn from a
// datasets regime family.
type GraphSpec struct {
	Name   string  `json:"name"`
	Family string  `json:"family"`
	N      int     `json:"n"`
	Degree float64 `json:"degree"`
}

// Config sizes a benchmark run.
type Config struct {
	Seed    int64
	Widths  []int
	Graphs  []GraphSpec
	Repeats int // timing repetitions per kernel; best (minimum) wall time wins
	Workers int // parallel pool size; 0 = GOMAXPROCS
	Pattern pattern.VNM
	// Obs, when set, instruments the benchmark pool: kernel dispatch
	// counters and tiling histograms accumulate across the whole suite.
	// Timed loops include the (negligible, nil-checked) recording cost
	// uniformly, so speedup ratios remain comparable.
	Obs *obs.Registry
	// Calib is the planner's calibration table. Nil means Run measures
	// one on this machine before timing (plan.Measure); pinning a
	// parsed table instead makes the planner rows' choices — and hence
	// the canonical suite — byte-reproducible.
	Calib *plan.Calibration
}

// DefaultConfig returns the checked-in trajectory workload: three
// regime families (uniform-random, heavy-tailed, mesh-like) at sizes
// that keep a full run in seconds on a laptop core.
func DefaultConfig() Config {
	return Config{
		Seed:   20250806,
		Widths: []int{64, 128},
		Graphs: []GraphSpec{
			{Name: "er-8k", Family: "er", N: 8192, Degree: 8},
			{Name: "powerlaw-8k", Family: "powerlaw", N: 8192, Degree: 8},
			{Name: "banded-4k", Family: "banded", N: 4096, Degree: 6},
		},
		Repeats: 3,
		Workers: 0,
		Pattern: pattern.New(4, 2, 8),
	}
}

// Validate rejects configurations that cannot produce a meaningful
// suite.
func (c Config) Validate() error {
	switch {
	case len(c.Widths) == 0:
		return fmt.Errorf("bench: Widths must be nonempty")
	case len(c.Graphs) == 0:
		return fmt.Errorf("bench: Graphs must be nonempty")
	case c.Repeats < 1:
		return fmt.Errorf("bench: Repeats %d must be >= 1", c.Repeats)
	case c.Workers < 0:
		return fmt.Errorf("bench: Workers %d must be >= 0", c.Workers)
	}
	for _, g := range c.Graphs {
		if g.N < 1 {
			return fmt.Errorf("bench: graph %q has N %d", g.Name, g.N)
		}
	}
	return nil
}

// Result is one kernel execution's row in the suite. The first block
// of fields is deterministic for a fixed config; the timing block
// (ns_per_op, gflops, speedup_vs_serial) varies run to run and is
// zeroed by Canonical.
type Result struct {
	Graph   string `json:"graph"`
	N       int    `json:"n"`
	Edges   int    `json:"edges"`
	NNZ     int    `json:"nnz"`
	H       int    `json:"h"`
	Kernel  string `json:"kernel"`
	Workers int    `json:"workers"`
	// GoMaxProcs records the scheduler parallelism this row was timed
	// under, so a trajectory file mixing machines stays interpretable
	// row by row.
	GoMaxProcs int `json:"gomaxprocs"`
	// Choice, on planner rows only, names the kernel class the planner
	// dispatched (csr or hybrid).
	Choice string `json:"choice,omitempty"`

	// FLOPs is the useful arithmetic of the product: 2 * nnz * h.
	FLOPs int64 `json:"flops"`
	// ModelCycles is the kernel's cost under the calibrated SPTC/CUDA
	// cycle model (internal/sptc) — hardware-independent.
	ModelCycles float64 `json:"model_cycles"`
	// ModelFLOPPerCycle is the effective GFLOP-equivalent rate of the
	// cycle model: useful FLOPs per modeled cycle.
	ModelFLOPPerCycle float64 `json:"model_flop_per_cycle"`

	// PredictedNs, on planner rows only, is the calibrated cost
	// estimate the choice was made on: model cycles x ns-per-cycle.
	// Deterministic for a pinned table (it is a pure function of the
	// profile and the table), so Canonical keeps it.
	PredictedNs float64 `json:"predicted_ns,omitempty"`

	NsPerOp float64 `json:"ns_per_op"`
	// GFLOPS is the measured useful-arithmetic rate, flops/ns.
	GFLOPS float64 `json:"gflops"`
	// SpeedupVsSerial is the same kernel's ns_per_op on a pool of one
	// divided by this row's; 1.0 for the serial rows themselves.
	// Planner rows use the serial row of the chosen class.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// VsBestStatic, on planner rows only, is the best static kernel's
	// ns_per_op divided by the planned dispatch's: 1.0 means the
	// planner matched the best static choice, below 1.0 it paid regret.
	VsBestStatic float64 `json:"vs_best_static,omitempty"`
}

// Suite is the full benchmark output.
type Suite struct {
	Schema     string `json:"schema"`
	Seed       int64  `json:"seed"`
	Workers    int    `json:"workers"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Pattern    string `json:"pattern"`
	// Calib is the canonical text form of the calibration table the
	// planner rows were decided on (plan.Calibration.String) —
	// ParseCalibration round-trips it, so a suite pins its own replay.
	Calib   string   `json:"calib"`
	Widths  []int    `json:"widths"`
	Results []Result `json:"results"`
}

// time1 measures fn's best (minimum) wall time over repeats runs,
// after one untimed warmup.
func time1(repeats int, fn func()) float64 {
	fn()
	best := time.Duration(1<<63 - 1)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds())
}

// Run executes the suite: for every (graph, width), the CSR and the
// V:N:M/SPTC hybrid kernels each on a pool of one (the "-serial" rows)
// and on the Workers-sized pool (the "-parallel" rows), and a fifth
// planner row — the calibrated execution planner choosing between the
// two kernels at dispatch time — each timed best-of-Repeats.
func Run(cfg Config) (*Suite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := sched.New(workers).WithObs(cfg.Obs)
	serial := sched.Serial()
	cm := sptc.DefaultCostModel()
	cal := cfg.Calib
	if cal == nil {
		var err error
		cal, err = plan.Measure(plan.MeasureConfig{
			Seed:    cfg.Seed,
			Workers: workers,
			Pattern: cfg.Pattern,
			Repeats: cfg.Repeats,
			Cost:    cm,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: calibration: %w", err)
		}
	}
	planner := &plan.Planner{Calib: cal, Cost: cm}
	procs := runtime.GOMAXPROCS(0)
	s := &Suite{
		Schema:     Schema,
		Seed:       cfg.Seed,
		Workers:    workers,
		GoMaxProcs: procs,
		Pattern:    cfg.Pattern.String(),
		Calib:      cal.String(),
		Widths:     append([]int(nil), cfg.Widths...),
	}
	var arena plan.Arena
	for gi, spec := range cfg.Graphs {
		g, err := datasets.Family(spec.Family, spec.N, spec.Degree, cfg.Seed+int64(gi))
		if err != nil {
			return nil, fmt.Errorf("bench: graph %q: %w", spec.Name, err)
		}
		a := csr.FromGraph(g)
		comp, resid, err := venom.SplitToConform(a, cfg.Pattern)
		if err != nil {
			return nil, fmt.Errorf("bench: graph %q: %w", spec.Name, err)
		}
		for _, h := range cfg.Widths {
			b := dense.NewMatrix(a.N, h)
			b.Randomize(1, cfg.Seed+int64(h))
			flops := 2 * int64(a.NNZ()) * int64(h)
			hybridCycles := cm.VNMSpMMCycles(sptc.Stats(comp, cm), h)
			if resid.NNZ() > 0 {
				hybridCycles += cm.CSRSpMMCycles(resid.NNZ(), resid.N, h)
			}
			base := Result{
				Graph: spec.Name, N: a.N, Edges: g.NumUndirectedEdges(), NNZ: a.NNZ(), H: h,
				FLOPs: flops,
			}
			add := func(kernel string, w int, cycles float64, ns, serialNs float64) *Result {
				r := base
				r.Kernel = kernel
				r.Workers = w
				r.GoMaxProcs = procs
				r.ModelCycles = cycles
				if cycles > 0 {
					r.ModelFLOPPerCycle = float64(flops) / cycles
				}
				r.NsPerOp = ns
				if ns > 0 {
					r.GFLOPS = float64(flops) / ns
					r.SpeedupVsSerial = serialNs / ns
				}
				s.Results = append(s.Results, r)
				return &s.Results[len(s.Results)-1]
			}
			csrC := cm.CSRSpMMCycles(a.NNZ(), a.N, h)
			serialNs := time1(cfg.Repeats, func() { spmm.CSR(serial, nil, a, b) })
			add("csr-serial", 1, csrC, serialNs, serialNs)
			parNs := time1(cfg.Repeats, func() { spmm.CSR(pool, nil, a, b) })
			add("csr-parallel", workers, csrC, parNs, serialNs)
			hybSerialNs := time1(cfg.Repeats, func() { spmm.Hybrid(serial, nil, nil, comp, resid, b) })
			add("hybrid-serial", 1, hybridCycles, hybSerialNs, hybSerialNs)
			hybParNs := time1(cfg.Repeats, func() { spmm.Hybrid(pool, nil, nil, comp, resid, b) })
			add("hybrid-parallel", workers, hybridCycles, hybParNs, hybSerialNs)

			// The planner row: choose between the two kernel classes from
			// the calibrated table and time the planned dispatch itself
			// on the parallel pool.
			op := plan.Operands{A: a, Comp: comp, Resid: resid}
			d := planner.ChooseOperands(op, h)
			plannerNs := time1(cfg.Repeats, func() { plan.Execute(d, pool, op, b, &arena) })
			twinNs := serialNs
			if d.Kernel.IsHybrid() {
				twinNs = hybSerialNs
			}
			bestStatic := serialNs
			for _, ns := range []float64{parNs, hybSerialNs, hybParNs} {
				if ns < bestStatic {
					bestStatic = ns
				}
			}
			r := add("planner", workers, cycle.ModelCycles(cm, d.Kernel, op.Profile(h, cm)), plannerNs, twinNs)
			r.Choice = string(d.Kernel)
			r.PredictedNs = d.PredictedNs()
			if plannerNs > 0 {
				r.VsBestStatic = bestStatic / plannerNs
			}
		}
	}
	return s, nil
}

// Canonical returns a copy of the suite with every timing-derived
// field zeroed — the byte-comparable projection two same-seed runs
// with a pinned calibration table must agree on. The planner rows'
// choice and predicted_ns survive: both are pure functions of the
// (seeded) operands and the table, so canonical equality proves the
// planner replayed the same decisions.
func Canonical(s *Suite) *Suite {
	c := *s
	c.Results = append([]Result(nil), s.Results...)
	for i := range c.Results {
		c.Results[i].NsPerOp = 0
		c.Results[i].GFLOPS = 0
		c.Results[i].SpeedupVsSerial = 0
		c.Results[i].VsBestStatic = 0
	}
	return &c
}

// JSON renders the suite as indented JSON with a trailing newline.
func (s *Suite) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
