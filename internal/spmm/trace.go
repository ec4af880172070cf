package spmm

import (
	"repro/internal/sched"
	"repro/internal/sptc"
	"repro/internal/venom"
)

// Trace is an instruction-level account of one compressed SpMM
// execution: what the kernel actually did, independent of the cost
// model. The suite's correctness argument for the model is that
// Trace's structural counts coincide with sptc.Stats (tested), so the
// modeled cycles are a deterministic function of executed work.
//
// Tracing is per-call: all tally state lives in the returned value (no
// package-level mutable state), so traces may run concurrently with
// each other and with the kernels they describe.
type Trace struct {
	Blocks       int // meta-blocks visited
	ActiveSlots  int // packed value slots holding nonzeros (FMA count / H)
	PaddedSlots  int // packed value slots executed as zero padding
	BRowLoads    int // B rows staged (selected columns across blocks)
	InstrGroups  int // mma.sp instruction groups (16-row band x 8 blocks)
	RowsTouched  int // output rows written by at least one block
	BytesValues  int // bytes of packed values streamed
	BytesMeta    int // bytes of metadata streamed (packed 2-bit form)
	BytesColumns int // bytes of column ids streamed
}

// merge folds another partial tally into this one. Only used for
// partials over disjoint block-row ranges, where every counter —
// RowsTouched included, since block rows own disjoint matrix rows —
// is a plain sum.
func (tr *Trace) merge(o Trace) {
	tr.Blocks += o.Blocks
	tr.ActiveSlots += o.ActiveSlots
	tr.PaddedSlots += o.PaddedSlots
	tr.BRowLoads += o.BRowLoads
	tr.RowsTouched += o.RowsTouched
}

// TraceVNM walks the compressed matrix exactly as the VNM kernel does
// and tallies the executed operations. The walk is parallel on pool p
// over block-row chunks with one private Trace per chunk, folded in
// chunk order (ordered reduction), so the result is identical at every
// worker count.
func TraceVNM(p *sched.Pool, m *venom.Matrix) Trace {
	p.Obs().Counter("spmm/dispatch/trace_vnm").Inc()
	blockRows := len(m.BlockRowPtr) - 1
	chunks := sched.Chunks(blockRows, p.Workers()*4)
	partials := make([]Trace, len(chunks))
	if err := p.Run(len(chunks), func(ci int) {
		partials[ci] = traceBlockRows(m, chunks[ci][0], chunks[ci][1])
	}); err != nil {
		panic(err)
	}
	var tr Trace
	for _, pt := range partials {
		tr.merge(pt)
	}
	tr.InstrGroups = sptc.FragmentCount(m, sptc.MmaM)
	tr.BytesValues = len(m.Values) * 4
	tr.BytesMeta = sptc.MetaWordsFor(len(m.Meta)) * 4
	tr.BytesColumns = len(m.BlockCols) * 4
	return tr
}

// traceBlockRows tallies block rows [lo, hi) into a private Trace.
func traceBlockRows(m *venom.Matrix, lo, hi int) Trace {
	var tr Trace
	vpb := m.ValuesPerBlock()
	for br := lo; br < hi; br++ {
		rowBase := br * m.P.V
		vRows := m.P.V
		if rowBase+vRows > m.N {
			vRows = m.N - rowBase
		}
		rowTouched := make([]bool, vRows)
		for bi := m.BlockRowPtr[br]; bi < m.BlockRowPtr[br+1]; bi++ {
			tr.Blocks++
			colBase := int(bi) * m.K
			for s := 0; s < m.K; s++ {
				if m.BlockCols[colBase+s] >= 0 {
					tr.BRowLoads++
				}
			}
			valBase := int(bi) * vpb
			for dr := 0; dr < vRows; dr++ {
				touched := false
				off := valBase + dr*m.P.N
				for s := 0; s < m.P.N; s++ {
					if m.Values[off+s] != 0 {
						tr.ActiveSlots++
						touched = true
					} else {
						tr.PaddedSlots++
					}
				}
				if touched && !rowTouched[dr] {
					rowTouched[dr] = true
					tr.RowsTouched++
				}
			}
		}
	}
	return tr
}

// Utilization returns the fraction of executed slots holding real
// nonzeros — low utilization is the ultra-sparse regime where the
// SPTC loses to CSR.
func (tr Trace) Utilization() float64 {
	total := tr.ActiveSlots + tr.PaddedSlots
	if total == 0 {
		return 0
	}
	return float64(tr.ActiveSlots) / float64(total)
}
