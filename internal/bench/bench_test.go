package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/predictor/cycle"
)

// tinyConfig keeps test runs fast: two small graphs, one width, one
// timing repetition, and a pinned calibration table so no measurement
// pass runs and the planner rows are deterministic.
func tinyConfig() Config {
	return Config{
		Seed:   7,
		Widths: []int{8},
		Graphs: []GraphSpec{
			{Name: "er-tiny", Family: "er", N: 256, Degree: 6},
			{Name: "powerlaw-tiny", Family: "powerlaw", N: 200, Degree: 5},
		},
		Repeats: 1,
		Workers: 2,
		Pattern: pattern.NM(2, 4),
		Calib: &plan.Calibration{
			Seed: 7, Workers: 2,
			Coeffs: []plan.Coefficient{
				{Kernel: cycle.KernelCSR, NsPerCycle: 0.25},
				{Kernel: cycle.KernelHybrid, NsPerCycle: 0.7},
			},
		},
	}
}

// TestSuiteDeterminism: two runs with the same seed produce
// byte-identical JSON once the timing fields are canonicalized — the
// satellite contract that makes BENCH_spmm.json diffable across PRs.
func TestSuiteDeterminism(t *testing.T) {
	s1, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	j1, err := Canonical(s1).JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Canonical(s2).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same-seed runs disagree canonically:\n%s\n---\n%s", j1, j2)
	}
}

// TestSuiteSchema: the JSON layout carries the fields trajectory
// tooling depends on, with sane values.
func TestSuiteSchema(t *testing.T) {
	s, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("suite JSON does not parse: %v", err)
	}
	for _, key := range []string{"schema", "seed", "workers", "gomaxprocs", "pattern", "widths", "results"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("suite JSON missing top-level key %q", key)
		}
	}
	if decoded["schema"] != Schema {
		t.Fatalf("schema = %v, want %q", decoded["schema"], Schema)
	}
	if calib, ok := decoded["calib"].(string); !ok || calib == "" {
		t.Fatalf("suite JSON calib = %v, want the pinned table", decoded["calib"])
	} else if got, err := plan.ParseCalibration(calib); err != nil || got == nil {
		t.Fatalf("suite calib %q does not round-trip: %v", calib, err)
	}
	results, ok := decoded["results"].([]any)
	if !ok || len(results) == 0 {
		t.Fatal("suite JSON has no results")
	}
	// 2 graphs x 1 width x (4 kernels + 1 planner row).
	if len(s.Results) != 10 {
		t.Fatalf("got %d results, want 10", len(s.Results))
	}
	classes := map[string]bool{}
	for _, k := range cycle.KernelClasses() {
		classes[string(k)] = true
	}
	kernels := map[string]int{}
	for _, r := range s.Results {
		kernels[r.Kernel]++
		if r.FLOPs <= 0 || r.ModelCycles <= 0 || r.NsPerOp <= 0 || r.NNZ <= 0 {
			t.Fatalf("result %+v has non-positive metrics", r)
		}
		if r.ModelFLOPPerCycle <= 0 || r.GFLOPS <= 0 {
			t.Fatalf("result %+v missing derived rates", r)
		}
		if r.GoMaxProcs < 1 {
			t.Fatalf("result %+v missing gomaxprocs", r)
		}
		if r.Kernel == "planner" {
			if !classes[r.Choice] {
				t.Fatalf("planner row chose unknown kernel %q", r.Choice)
			}
			if r.PredictedNs <= 0 || r.VsBestStatic <= 0 {
				t.Fatalf("planner row %+v missing planner metrics", r)
			}
		} else if r.Choice != "" || r.PredictedNs != 0 || r.VsBestStatic != 0 {
			t.Fatalf("static row %+v carries planner-only fields", r)
		}
	}
	for _, k := range []string{"csr-serial", "csr-parallel", "hybrid-serial", "hybrid-parallel", "planner"} {
		if kernels[k] != 2 {
			t.Fatalf("kernel %q appears %d times, want 2 (kernels: %v)", k, kernels[k], kernels)
		}
	}
}

// TestSpeedupFieldConsistency: speedup_vs_serial is exactly the ratio
// of the twin's ns_per_op to the kernel's, and 1.0 for serial rows.
func TestSpeedupFieldConsistency(t *testing.T) {
	s, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	serialNs := map[string]float64{}
	for _, r := range s.Results {
		if r.Kernel == "csr-serial" || r.Kernel == "hybrid-serial" {
			serialNs[r.Graph+"/"+r.Kernel[:3]] = r.NsPerOp
			if r.SpeedupVsSerial != 1 {
				t.Fatalf("serial row %q has speedup %g, want 1", r.Kernel, r.SpeedupVsSerial)
			}
		}
	}
	for _, r := range s.Results {
		var twin string
		switch r.Kernel {
		case "csr-parallel":
			twin = r.Graph + "/csr"
		case "hybrid-parallel":
			twin = r.Graph + "/hyb"
		case "planner":
			// The planner row's baseline is the serial twin of whichever
			// class it chose.
			twin = r.Graph + "/" + r.Choice[:3]
		default:
			continue
		}
		want := serialNs[twin] / r.NsPerOp
		if diff := r.SpeedupVsSerial - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s speedup %g, want %g", r.Kernel, r.SpeedupVsSerial, want)
		}
	}
}

// TestCanonicalZeroesOnlyTimingFields: the canonical projection keeps
// every deterministic field and zeroes every timing field.
func TestCanonicalZeroesOnlyTimingFields(t *testing.T) {
	s, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := Canonical(s)
	for i, r := range c.Results {
		if r.NsPerOp != 0 || r.GFLOPS != 0 || r.SpeedupVsSerial != 0 || r.VsBestStatic != 0 {
			t.Fatalf("canonical result %d keeps timing fields: %+v", i, r)
		}
		orig := s.Results[i]
		if r.Graph != orig.Graph || r.Kernel != orig.Kernel || r.FLOPs != orig.FLOPs ||
			r.ModelCycles != orig.ModelCycles || r.NNZ != orig.NNZ ||
			r.Choice != orig.Choice || r.PredictedNs != orig.PredictedNs ||
			r.GoMaxProcs != orig.GoMaxProcs {
			t.Fatalf("canonical result %d lost deterministic fields: %+v vs %+v", i, r, orig)
		}
	}
	if c.Calib != s.Calib {
		t.Fatal("canonical suite lost the calibration table")
	}
	if s.Results[0].NsPerOp == 0 {
		t.Fatal("Canonical mutated the original suite")
	}
}

// TestCheckedInBenchFile (regression gate): the trajectory file at the
// repo root must never record a parallel kernel losing to its serial
// twin (speedup_vs_serial < 1 at workers > 1), and every planner row
// must stay within 10% of the best static kernel — the PR acceptance
// bars, enforced against the bytes actually checked in so a bad
// regeneration cannot land silently.
func TestCheckedInBenchFile(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_spmm.json")
	if err != nil {
		t.Fatalf("checked-in BENCH_spmm.json unreadable: %v", err)
	}
	var s Suite
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("BENCH_spmm.json does not parse as a Suite: %v", err)
	}
	if s.Schema != Schema {
		t.Fatalf("BENCH_spmm.json schema %q, want %q — regenerate with cmd/sogre-bench", s.Schema, Schema)
	}
	if _, err := plan.ParseCalibration(s.Calib); err != nil {
		t.Fatalf("BENCH_spmm.json calib does not parse: %v", err)
	}
	for _, r := range s.Results {
		if r.Workers > 1 && r.SpeedupVsSerial < 1 {
			t.Errorf("%s/%s h=%d: parallel kernel slower than serial twin (speedup %.3f at %d workers)",
				r.Graph, r.Kernel, r.H, r.SpeedupVsSerial, r.Workers)
		}
		if r.Kernel == "planner" && r.VsBestStatic < 0.9 {
			t.Errorf("%s/planner h=%d: planned dispatch at %.3f of best static, want >= 0.9",
				r.Graph, r.H, r.VsBestStatic)
		}
	}
}

// TestLiveParallelNoSlowdown (regression gate, live half): on a machine
// with real parallelism, a fresh bench run must not record a parallel
// kernel losing to its serial twin. Wall-clock based and meaningless on
// starved schedulers, so it needs at least 4 procs and skips -short.
func TestLiveParallelNoSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("live timing gate skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need >= 4 procs for a meaningful parallel gate, have %d", runtime.GOMAXPROCS(0))
	}
	cfg := tinyConfig()
	cfg.Graphs = []GraphSpec{{Name: "er-mid", Family: "er", N: 4096, Degree: 8}}
	cfg.Widths = []int{64}
	cfg.Workers = 0 // full machine
	cfg.Repeats = 5
	cfg.Calib = nil // measure: the planner row should also pick a winner here
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Results {
		if r.Workers > 1 && r.SpeedupVsSerial < 1 {
			t.Errorf("%s/%s h=%d: parallel kernel slower than serial twin (speedup %.3f at %d workers)",
				r.Graph, r.Kernel, r.H, r.SpeedupVsSerial, r.Workers)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.Widths = nil },
		func(c *Config) { c.Graphs = nil },
		func(c *Config) { c.Repeats = 0 },
		func(c *Config) { c.Workers = -1 },
		func(c *Config) { c.Graphs[0].N = 0 },
	} {
		cfg := tinyConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("invalid config %+v accepted", cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run accepted the zero config")
	}
	bad := tinyConfig()
	bad.Graphs[0].Family = "no-such-family"
	if _, err := Run(bad); err == nil {
		t.Fatal("Run accepted an unknown graph family")
	}
}
