package plan

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/predictor/cycle"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// MeasureConfig sizes the one-shot calibration pass.
type MeasureConfig struct {
	// Seed feeds the probe operand generators.
	Seed int64
	// Workers sizes the pool the classes are probed on; 0 = GOMAXPROCS.
	Workers int
	// Pattern is the V:N:M format the hybrid probe splits to.
	Pattern pattern.VNM
	// Repeats is the best-of timing count per kernel (default 3).
	Repeats int
	// ProbeN, ProbeDegree, ProbeH size the probe operands (defaults
	// 2048 vertices, degree 8, width 64) — large enough that per-call
	// overhead is amortized, small enough that calibration stays a
	// few milliseconds per kernel.
	ProbeN      int
	ProbeDegree float64
	ProbeH      int
	// Cost is the cycle model to calibrate against (zero value =
	// sptc.DefaultCostModel()).
	Cost sptc.CostModel
	// Autotune, when true, additionally sweeps sched.TargetCandidates
	// on the CSR probe and records the winning tile-cost target in the
	// table.
	Autotune bool
}

func (c *MeasureConfig) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Pattern.V == 0 {
		c.Pattern = pattern.New(4, 2, 8)
	}
	if c.Repeats < 1 {
		c.Repeats = 3
	}
	if c.ProbeN <= 0 {
		c.ProbeN = 2048
	}
	if c.ProbeDegree <= 0 {
		c.ProbeDegree = 8
	}
	if c.ProbeH <= 0 {
		c.ProbeH = 64
	}
	if c.Cost.FragRows == 0 {
		c.Cost = sptc.DefaultCostModel()
	}
}

// bestNs times fn's best (minimum) wall time over repeats runs after
// one untimed warmup — the same methodology internal/bench uses, so
// coefficients and bench rows are comparable.
func bestNs(repeats int, fn func()) float64 {
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

// Measure runs the one-shot calibration pass: every kernel class is
// timed on a seeded uniform-random probe matrix, and its coefficient
// is measured-ns / model-cycles on that probe. The pass costs a few
// tens of milliseconds and its output — serialized via String — lets
// every later planned dispatch skip measurement entirely.
func Measure(cfg MeasureConfig) (*Calibration, error) {
	cfg.defaults()
	g := graph.ErdosRenyi(cfg.ProbeN, cfg.ProbeDegree/float64(cfg.ProbeN), cfg.Seed)
	a := csr.FromGraph(g).Compact()
	comp, resid, err := venom.SplitToConform(a, cfg.Pattern)
	if err != nil {
		return nil, fmt.Errorf("plan: probe split: %w", err)
	}
	resid = resid.Compact()
	b := dense.NewMatrix(a.N, cfg.ProbeH)
	b.Randomize(1, cfg.Seed+int64(cfg.ProbeH))
	prof := cycle.ProfileOf(a, comp, resid, cfg.ProbeH, cfg.Cost)

	pool := sched.New(cfg.Workers)
	cal := &Calibration{Seed: cfg.Seed, Workers: cfg.Workers}
	if cfg.Autotune {
		cal.TileTarget = sched.Autotune(
			sched.TargetCandidates(int64(a.NNZ()), cfg.Workers), cfg.Repeats,
			func(target int64) { spmm.CSR(pool.WithTarget(target), nil, a, b) })
		pool = pool.WithTarget(cal.TileTarget)
	}

	var arena, scratch dense.Arena
	c := arena.Matrix(a.N, cfg.ProbeH)
	s := scratch.Matrix(a.N, cfg.ProbeH)
	runs := map[cycle.KernelClass]func(){
		cycle.KernelCSR:    func() { spmm.CSR(pool, c, a, b) },
		cycle.KernelHybrid: func() { spmm.Hybrid(pool, c, s, comp, resid, b) },
	}
	for _, k := range cycle.KernelClasses() {
		cycles := cycle.ModelCycles(cfg.Cost, k, prof)
		if cycles <= 0 {
			return nil, fmt.Errorf("plan: probe has non-positive model cycles for %s", k)
		}
		ns := bestNs(cfg.Repeats, runs[k])
		cal.Coeffs = append(cal.Coeffs, Coefficient{Kernel: k, NsPerCycle: ns / cycles})
	}
	cal.normalize()
	return cal, nil
}
