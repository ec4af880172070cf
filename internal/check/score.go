package check

import (
	"fmt"
	"math/bits"

	"repro/internal/bitmat"
	"repro/internal/pattern"
	"repro/internal/sched"
)

// The conformity-scoring layer's differential oracle. internal/pattern
// scores a whole 64-bit word of segment vectors at a time, skipping
// words that cannot hold a violation and meta-block scans that cannot
// find one (DESIGN.md §8). The references here score one segment at a
// time instead — one bitmat.SegmentPop per (row, segment) and one
// bitmat.ColumnsUsed per (band, segment), with no skipping — so every
// shortcut the kernel takes is checked against the plain definition.
// The scores are integer counts, so agreement must be exact.

// ScoreTable holds the reference scores of one matrix under one
// pattern, broken down the ways internal/pattern reports them.
type ScoreTable struct {
	Rows    []int // Rows[i]: row i's violating segment vectors
	Bands   []int // Bands[b]: band b's violating meta-blocks
	Segs    []int // Segs[s]: segment s's violating segment vectors
	SegNNZ  []int // SegNNZ[s]: segment s's nonzeros
	SegMB   []int // SegMB[s]: segment s's violating meta-blocks
	PScore  int   // total violating segment vectors
	MBScore int   // total violating meta-blocks
}

// ScoreRef computes the reference ScoreTable of m under p by the
// per-segment loops.
func ScoreRef(m *bitmat.Matrix, p pattern.VNM) ScoreTable {
	segs := m.NumSegments(p.M)
	bands := pattern.NumBlockRows(m, p)
	t := ScoreTable{
		Rows:   make([]int, m.N()),
		Bands:  make([]int, bands),
		Segs:   make([]int, segs),
		SegNNZ: make([]int, segs),
		SegMB:  make([]int, segs),
	}
	for i := 0; i < m.N(); i++ {
		for s := 0; s < segs; s++ {
			pop := m.SegmentPop(i, s, p.M)
			t.SegNNZ[s] += pop
			if pop > p.N {
				t.Rows[i]++
				t.Segs[s]++
				t.PScore++
			}
		}
	}
	for b := 0; b < bands; b++ {
		for s := 0; s < segs; s++ {
			if bits.OnesCount64(m.ColumnsUsed(b*p.V, s, p.M, p.V)) > p.EffK() {
				t.Bands[b]++
				t.SegMB[s]++
				t.MBScore++
			}
		}
	}
	return t
}

// ScoreEquivalence certifies internal/pattern's scoring against
// ScoreRef: PScoreOn and MBScoreOn on the default pool and on a pool
// of each listed worker count, SegmentPScores, SegmentNNZ, and every
// row's RowPScore and band's BlockRowMBScore must equal the reference
// exactly. It returns the first disagreement.
func ScoreEquivalence(m *bitmat.Matrix, p pattern.VNM, workers []int) error {
	ref := ScoreRef(m, p)
	for _, w := range append([]int{0}, workers...) {
		var pool *sched.Pool // workers=0: the nil-pool default path
		if w > 0 {
			pool = sched.New(w)
		}
		if got := pattern.PScoreOn(pool, m, p); got != ref.PScore {
			return fmt.Errorf("check: %v n=%d workers=%d: PScoreOn = %d, reference %d", p, m.N(), w, got, ref.PScore)
		}
		if got := pattern.MBScoreOn(pool, m, p); got != ref.MBScore {
			return fmt.Errorf("check: %v n=%d workers=%d: MBScoreOn = %d, reference %d", p, m.N(), w, got, ref.MBScore)
		}
	}
	if err := intsEqual("SegmentPScores", pattern.SegmentPScores(m, p), ref.Segs); err != nil {
		return fmt.Errorf("check: %v n=%d: %w", p, m.N(), err)
	}
	if err := intsEqual("SegmentNNZ", pattern.SegmentNNZ(m, p), ref.SegNNZ); err != nil {
		return fmt.Errorf("check: %v n=%d: %w", p, m.N(), err)
	}
	for i, want := range ref.Rows {
		if got := pattern.RowPScore(m, p, i); got != want {
			return fmt.Errorf("check: %v n=%d: RowPScore(%d) = %d, reference %d", p, m.N(), i, got, want)
		}
	}
	for b, want := range ref.Bands {
		if got := pattern.BlockRowMBScore(m, p, b); got != want {
			return fmt.Errorf("check: %v n=%d: BlockRowMBScore(%d) = %d, reference %d", p, m.N(), b, got, want)
		}
	}
	return nil
}

// intsEqual reports the first index where got and want differ.
func intsEqual(what string, got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d entries, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, reference %d", what, i, got[i], want[i])
		}
	}
	return nil
}
