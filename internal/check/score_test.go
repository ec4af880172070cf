package check

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/pattern"
)

// scoreCase decodes fuzz bytes into a matrix and a pattern. The
// pattern is not validated: M ranges over every width in [1, 64], power
// of two or not, N over [1, M], V over [1, 80] (so V > n occurs) and
// the K override over [0, 69] (0 selects the default), on both sides
// of M. n ranges over [0, 199], rarely a multiple of 64 or of M. The
// bits come from a generator seeded by the tail, at the density byte's
// rate.
func scoreCase(data []byte) (*bitmat.Matrix, pattern.VNM) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	M := 1 + at(0)%64
	p := pattern.VNM{M: M, N: 1 + at(1)%M, V: 1 + at(2)%80, K: at(3) % 70}
	n := (at(4) | at(5)<<8) % 200
	density := float64(at(6)) / 255
	var seed int64
	for i := 7; i < len(data); i++ {
		seed = seed*131 + int64(data[i])
	}
	return randomBitMatrix(n, density, seed), p
}

// randomBitMatrix returns a seeded n×n bit matrix (not necessarily
// symmetric) with each bit set at the given rate.
func randomBitMatrix(n int, density float64, seed int64) *bitmat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := bitmat.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				m.Set(i, j)
			}
		}
	}
	return m
}

// scoreSeeds is the fuzz seed corpus: every M in [1, 64] at a size
// that is not a multiple of 64, plus the named edge shapes.
func scoreSeeds() [][]byte {
	var seeds [][]byte
	for M := 1; M <= 64; M++ {
		n := 70 + 3*M // never a multiple of 64
		seeds = append(seeds, []byte{byte(M - 1), byte(M / 3), byte(M % 9), byte(M % 11), byte(n), byte(n >> 8), byte(40 + 3*M), byte(M)})
	}
	seeds = append(seeds,
		[]byte{},
		[]byte{15, 1, 3, 0, 5, 0, 200, 1},   // n = 5 < M = 16
		[]byte{3, 1, 59, 0, 10, 0, 160, 2},  // V = 60 > n = 10
		[]byte{7, 1, 3, 3, 130, 0, 90, 3},   // M = 8, K = 3 < M
		[]byte{7, 1, 3, 12, 130, 0, 220, 4}, // M = 8, K = 12 > M
		[]byte{3, 1, 1, 0, 64, 0, 128, 5},   // 2:4, n = 64
		[]byte{63, 40, 7, 0, 199, 0, 255, 6},
	)
	return seeds
}

func TestScoreEquivalence(t *testing.T) {
	for _, data := range scoreSeeds() {
		m, p := scoreCase(data)
		if err := ScoreEquivalence(m, p, []int{1, 2, 4}); err != nil {
			t.Fatal(err)
		}
	}
	// Random sweep: every M, several sizes, densities and overrides.
	rng := rand.New(rand.NewSource(15))
	for M := 1; M <= 64; M++ {
		for _, n := range []int{0, 1, M - 1, M + 1, 70, 129} {
			data := make([]byte, 10)
			rng.Read(data)
			data[0] = byte(M - 1)
			data[4], data[5] = byte(n), byte(n>>8)
			m, p := scoreCase(data)
			if err := ScoreEquivalence(m, p, []int{1, 2, 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestScoreRefFixture pins the reference itself to hand-counted
// scores, so the oracle cannot drift with the kernel it checks.
func TestScoreRefFixture(t *testing.T) {
	m, err := bitmat.FromRows(
		"11100000",
		"00011000",
		"10000001",
		"01000001",
		"11110000",
		"00000000",
		"00000000",
		"00000000",
	)
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.VNM{V: 4, N: 2, M: 4, K: 3}
	ref := ScoreRef(m, p)
	// Row 0's first segment holds 3 nonzeros, row 4's holds 4.
	if ref.PScore != 2 || ref.Rows[0] != 1 || ref.Rows[4] != 1 || ref.Segs[0] != 2 || ref.Segs[1] != 0 {
		t.Errorf("PScore breakdown = %+v, want rows 0 and 4 in segment 0", ref)
	}
	if ref.SegNNZ[0] != 10 || ref.SegNNZ[1] != 3 {
		t.Errorf("SegNNZ = %v, want [10 3]", ref.SegNNZ)
	}
	// Band 0 (rows 0-3) uses all 4 columns of segment 0 (> K = 3) but
	// only columns 4 and 7 of segment 1; band 1 (rows 4-7) uses all 4
	// columns of segment 0.
	if ref.MBScore != 2 || ref.Bands[0] != 1 || ref.Bands[1] != 1 || ref.SegMB[0] != 2 {
		t.Errorf("MBScore breakdown = %+v, want one violation per band in segment 0", ref)
	}
	if err := ScoreEquivalence(m, p, []int{1, 3}); err != nil {
		t.Fatal(err)
	}
}

// FuzzScoreEquivalence holds the word-at-a-time scoring kernel to the
// per-segment references on arbitrary matrices and patterns.
func FuzzScoreEquivalence(f *testing.F) {
	for _, s := range scoreSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, p := scoreCase(data)
		if err := ScoreEquivalence(m, p, []int{1, 2, 4}); err != nil {
			t.Fatal(err)
		}
	})
}
