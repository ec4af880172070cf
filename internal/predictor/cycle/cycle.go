package cycle

import (
	"repro/internal/csr"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// KernelClass names one executable kernel choice the execution planner
// (internal/plan) ranks: the CUDA-core CSR kernel or the V:N:M/SPTC
// hybrid. Both run on whatever sched pool the dispatch is given —
// serial is a pool of one — so the class is the format, never the
// worker count.
type KernelClass string

const (
	KernelCSR    KernelClass = "csr"
	KernelHybrid KernelClass = "hybrid"
)

// KernelClasses returns every kernel class in canonical (sorted-string)
// order — the deterministic iteration order the planner and the
// calibration table both use.
func KernelClasses() []KernelClass {
	return []KernelClass{KernelCSR, KernelHybrid}
}

// IsHybrid reports whether the class consumes the V:N:M compressed
// split (and therefore requires conforming operands).
func (k KernelClass) IsHybrid() bool { return k == KernelHybrid }

// OpProfile captures the structural facts of one SpMM dispatch that the
// cycle model consumes. Everything here is cheap to extract (one pass
// over the operands) and invariant under row relabelings that preserve
// the V:N:M block structure, which is what makes planner decisions
// metamorphically stable (internal/check).
type OpProfile struct {
	// N and NNZ describe the sparse operand; H is the dense width.
	N   int
	NNZ int
	H   int
	// Fragments and UsedCols are the SPTC instruction statistics of the
	// compressed half of the hybrid split (zero when no split exists).
	Fragments int
	UsedCols  int
	Blocks    int
	// ResidNNZ and ResidRows describe the CSR residual outside the
	// pattern (zero after a fully conforming reorder).
	ResidNNZ  int
	ResidRows int
	// HasSplit records whether a compressed split was profiled at all;
	// without one the hybrid classes are not eligible.
	HasSplit bool
}

// ProfileOf extracts the dispatch profile of (a, comp, resid, h). comp
// and resid may be nil when only the CSR classes are candidates.
func ProfileOf(a *csr.Matrix, comp *venom.Matrix, resid *csr.Matrix, h int, cm sptc.CostModel) OpProfile {
	p := OpProfile{N: a.N, NNZ: a.NNZ(), H: h}
	if comp != nil {
		s := sptc.Stats(comp, cm)
		p.Fragments = s.Fragments
		p.UsedCols = s.UsedCols
		p.Blocks = s.Blocks
		p.HasSplit = true
		if resid != nil {
			p.ResidNNZ = resid.NNZ()
			p.ResidRows = resid.N
		}
	}
	return p
}

// ModelCycles returns the cost-model cycles of running kernel class k
// over profile p — the hardware-independent half of the planner's cost
// estimate. The model charges work, not scheduling, so the pool a
// class runs on does not enter it; what the measured ns-per-cycle
// coefficient internal/plan calibrates absorbs is the hardware gap the
// er-8k hybrid inversion in BENCH_spmm.json exposes (model says 3.0
// flop/cycle for hybrid vs 1.0 for CSR; the CPU, lacking sparse tensor
// cores, runs hybrid slower). Returns 0 for the hybrid class when p
// has no split.
func ModelCycles(cm sptc.CostModel, k KernelClass, p OpProfile) float64 {
	switch k {
	case KernelCSR:
		return cm.CSRSpMMCycles(p.NNZ, p.N, p.H)
	case KernelHybrid:
		if !p.HasSplit {
			return 0
		}
		c := cm.VNMSpMMCycles(sptc.VNMStats{
			Fragments: p.Fragments,
			UsedCols:  p.UsedCols,
			Blocks:    p.Blocks,
		}, p.H)
		if p.ResidNNZ > 0 {
			c += cm.CSRSpMMCycles(p.ResidNNZ, p.ResidRows, p.H)
		}
		return c
	}
	return 0
}
