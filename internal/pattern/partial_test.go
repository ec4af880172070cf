package pattern_test

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/check"
	"repro/internal/pattern"
)

// randomSym returns a seeded random symmetric bit matrix.
func randomSym(n int, density float64, seed int64) *bitmat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := bitmat.New(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if rng.Float64() < density {
				m.Set(i, j)
				m.Set(j, i)
			}
		}
	}
	return m
}

// TestPartialScoresSumToTotals pins the partial-score helpers to the
// full scores: summing RowPScore over rows and BlockRowMBScore over
// bands, and the per-segment references (check.ScoreRef) over stripes,
// must each reproduce PScore / MBScore exactly — the invariant the
// incremental delta tracking in internal/dyn rests on.
func TestPartialScoresSumToTotals(t *testing.T) {
	patterns := []pattern.VNM{pattern.NM(2, 4), pattern.New(4, 2, 8), pattern.New(2, 1, 4), pattern.New(8, 3, 16)}
	for _, n := range []int{0, 1, 3, 7, 16, 33, 70} {
		for si, density := range []float64{0, 0.1, 0.4, 0.9} {
			m := randomSym(n, density, int64(n*10+si))
			for _, p := range patterns {
				wantP, wantMB := pattern.PScore(m, p), pattern.MBScore(m, p)
				ref := check.ScoreRef(m, p)
				sumRow, sumSeg := 0, 0
				for i := 0; i < n; i++ {
					sumRow += pattern.RowPScore(m, p, i)
				}
				for _, c := range ref.Segs {
					sumSeg += c
				}
				if sumRow != wantP || sumSeg != wantP {
					t.Fatalf("n=%d density=%v pattern %v: PScore partial sums row=%d seg=%d, want %d",
						n, density, p, sumRow, sumSeg, wantP)
				}
				sumBand, sumSegMB := 0, 0
				for b := 0; b < pattern.NumBlockRows(m, p); b++ {
					sumBand += pattern.BlockRowMBScore(m, p, b)
				}
				for _, c := range ref.SegMB {
					sumSegMB += c
				}
				if sumBand != wantMB || sumSegMB != wantMB {
					t.Fatalf("n=%d density=%v pattern %v: MBScore partial sums band=%d seg=%d, want %d",
						n, density, p, sumBand, sumSegMB, wantMB)
				}
			}
		}
	}
}

// TestPartialScoresMatchSegmentPScores cross-checks SegmentPScores'
// row-order scan against the per-stripe reference.
func TestPartialScoresMatchSegmentPScores(t *testing.T) {
	m := randomSym(40, 0.3, 99)
	p := pattern.New(4, 2, 8)
	ref := check.ScoreRef(m, p)
	for s, got := range pattern.SegmentPScores(m, p) {
		if want := ref.Segs[s]; got != want {
			t.Fatalf("SegmentPScores[%d] = %d, reference gives %d", s, got, want)
		}
	}
}

func TestMetaBlockValidChecksBothConstraints(t *testing.T) {
	// Block uses only 3 columns (vertical ok) but row 0 has 3 nonzeros
	// in the window -> horizontal violation. A meta-block is valid only
	// when both its band's vertical count and its rows' horizontal
	// counts are clean, so this one is not.
	m, err := bitmat.FromRows(
		"11100000",
		"00000000",
		"00000000",
		"00000000",
		"00000000",
		"00000000",
		"00000000",
		"00000000",
	)
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.New(4, 2, 8)
	ref := check.ScoreRef(m, p)
	if ref.Rows[0] != 1 || pattern.RowPScore(m, p, 0) != 1 {
		t.Error("row 0's segment vector should violate the horizontal constraint")
	}
	if !pattern.MetaBlockVerticalValid(m, p, 0, 0) || ref.Bands[0] != 0 || pattern.BlockRowMBScore(m, p, 0) != 0 {
		t.Error("vertical constraint alone should pass (3 columns <= 4)")
	}
}

func TestConformsAndCheck(t *testing.T) {
	m, err := bitmat.FromRows(
		"1100",
		"0011",
		"1001",
		"0110",
	)
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.NM(2, 4)
	if !pattern.Conforms(m, p) {
		t.Error("2-per-row matrix should conform to 2:4")
	}
	if ref := check.ScoreRef(m, p); ref.PScore != 0 || ref.MBScore != 0 {
		t.Errorf("reference scores = %d/%d, want 0/0", ref.PScore, ref.MBScore)
	}
	m.Set(0, 2)
	if pattern.Conforms(m, p) {
		t.Error("3-nonzero row should not conform to 2:4")
	}
	if ref := check.ScoreRef(m, p); ref.PScore != 1 {
		t.Errorf("reference PScore = %d after adding a third nonzero, want 1", ref.PScore)
	}
}
