// Package plan is the cost-driven execution planner: at dispatch time
// it picks the kernel class (CSR vs V:N:M/SPTC hybrid) and tile shape
// for one SpMM, by combining the
// hardware-independent cycle model (internal/predictor/cycle)
// with a one-shot *measured* calibration of this machine — per-kernel
// ns-per-model-cycle coefficients probed on small seeded matrices.
//
// The split matters because the cycle model alone ranks kernels by
// modeled GPU throughput, which inverts on hardware that lacks the
// modeled units: BENCH_spmm.json's er-8k row shows the hybrid kernel
// winning on model cycles (3.0 vs 1.0 flop/cycle) while *losing* on
// measured wall clock, because a CPU has no sparse tensor cores. The
// measured coefficient absorbs exactly that gap: predicted wall time =
// model cycles x calibrated ns/cycle.
//
// Determinism contract: a Calibration serializes to a canonical,
// versioned text form (String) that ParseCalibration round-trips
// exactly, so a planned run replays byte-identically from a pinned
// table — planner decisions are pure functions of (profile, table),
// enforced by the internal/check planner oracles.
//
// There is no serial/parallel axis: every class runs on the pool the
// dispatch is given, and serial is a pool of one. An axis would be
// degenerate anyway — a class and its pool-of-one twin cost identical
// model cycles, so choosing between them would compare two constants
// and never depend on the operand.
package plan

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/predictor/cycle"
)

// CalibSchema identifies the calibration-table text format; bump on
// breaking changes so pinned tables cannot silently misparse. v2 has
// one coefficient per format (csr, hybrid); v1 tables, which split
// each format into serial and parallel classes, are rejected.
const CalibSchema = "sogre-calib/v2"

// Coefficient is one kernel class's measured cost rate: nanoseconds of
// wall clock per modeled cycle on the probe workload.
type Coefficient struct {
	Kernel     cycle.KernelClass
	NsPerCycle float64
}

// Calibration is the measured half of the planner's cost estimate: the
// probe provenance (seed, worker count) plus one coefficient per
// kernel class, and the autotuned tile-cost target (0 = pool
// automatic).
type Calibration struct {
	Seed       int64
	Workers    int
	TileTarget int64
	Coeffs     []Coefficient
}

// NsPerCycle looks up the coefficient for a kernel class.
func (c *Calibration) NsPerCycle(k cycle.KernelClass) (float64, bool) {
	for _, co := range c.Coeffs {
		if co.Kernel == k {
			return co.NsPerCycle, true
		}
	}
	return 0, false
}

// normalize sorts coefficients into the canonical kernel order.
func (c *Calibration) normalize() {
	sort.Slice(c.Coeffs, func(i, j int) bool { return c.Coeffs[i].Kernel < c.Coeffs[j].Kernel })
}

// String renders the calibration in the canonical form ParseCalibration
// accepts: ParseCalibration(c.String()).String() == c.String(), and the
// rendering is byte-stable (sorted kernels, shortest-round-trip float
// formatting) so pinned tables diff cleanly.
func (c *Calibration) String() string {
	if c == nil {
		return ""
	}
	cp := *c
	cp.Coeffs = append([]Coefficient(nil), c.Coeffs...)
	cp.normalize()
	parts := []string{
		CalibSchema,
		"seed=" + strconv.FormatInt(cp.Seed, 10),
		"workers=" + strconv.Itoa(cp.Workers),
		"target=" + strconv.FormatInt(cp.TileTarget, 10),
	}
	for _, co := range cp.Coeffs {
		parts = append(parts, string(co.Kernel)+"="+strconv.FormatFloat(co.NsPerCycle, 'g', -1, 64))
	}
	return strings.Join(parts, "; ")
}

// knownKernel reports whether s names a kernel class.
func knownKernel(s string) bool {
	for _, k := range cycle.KernelClasses() {
		if string(k) == s {
			return true
		}
	}
	return false
}

// ParseCalibration parses the textual calibration table: clauses
// separated by ';' or newlines, the first being the schema tag,
// followed in any order by
//
//	seed=<int>            probe seed
//	workers=<int>         pool size the classes were probed at
//	target=<int>          autotuned tile-cost target (0 = automatic)
//	<kernel>=<float>      ns-per-model-cycle coefficient, one per class
//
// Kernel names are the internal/predictor classes (csr, hybrid).
// Coefficients must be
// positive and finite; duplicate clauses are rejected. An empty string
// yields a nil Calibration (planning disabled).
func ParseCalibration(s string) (*Calibration, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == '\n' })
	var clauses []string
	for _, f := range fields {
		if t := strings.TrimSpace(f); t != "" {
			clauses = append(clauses, t)
		}
	}
	if len(clauses) == 0 {
		return nil, fmt.Errorf("plan: calibration input %q has no clauses", s)
	}
	if clauses[0] != CalibSchema {
		return nil, fmt.Errorf("plan: calibration schema %q, want %q", clauses[0], CalibSchema)
	}
	c := &Calibration{}
	seen := map[string]bool{}
	for _, clause := range clauses[1:] {
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("plan: calibration clause %q has no '='", clause)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if seen[key] {
			return nil, fmt.Errorf("plan: duplicate calibration clause %q", key)
		}
		seen[key] = true
		switch {
		case key == "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("plan: bad seed %q: %v", val, err)
			}
			c.Seed = v
		case key == "workers":
			v, err := strconv.Atoi(val)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("plan: bad workers %q", val)
			}
			c.Workers = v
		case key == "target":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("plan: bad target %q", val)
			}
			c.TileTarget = v
		case knownKernel(key):
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("plan: bad coefficient %q=%q (want positive finite float)", key, val)
			}
			c.Coeffs = append(c.Coeffs, Coefficient{Kernel: cycle.KernelClass(key), NsPerCycle: v})
		default:
			return nil, fmt.Errorf("plan: unknown calibration clause %q", key)
		}
	}
	if len(c.Coeffs) == 0 {
		return nil, fmt.Errorf("plan: calibration table has no kernel coefficients")
	}
	c.normalize()
	return c, nil
}
