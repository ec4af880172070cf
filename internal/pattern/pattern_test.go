package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
)

func mustMatrix(t *testing.T, rows ...string) *bitmat.Matrix {
	t.Helper()
	m, err := bitmat.FromRows(rows...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVNMString(t *testing.T) {
	if got := NM(2, 4).String(); got != "2:4" {
		t.Errorf("NM(2,4).String() = %q, want 2:4", got)
	}
	if got := New(32, 2, 8).String(); got != "32:2:8" {
		t.Errorf("New(32,2,8).String() = %q, want 32:2:8", got)
	}
}

func TestValidate(t *testing.T) {
	valid := []VNM{NM(2, 4), New(8, 2, 8), New(32, 2, 16), NM(1, 1), NM(2, 64)}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("%v.Validate() = %v, want nil", p, err)
		}
	}
	invalid := []VNM{
		{V: 1, N: 2, M: 3},   // M not power of two
		{V: 1, N: 0, M: 4},   // N too small
		{V: 1, N: 5, M: 4},   // N > M
		{V: 0, N: 2, M: 4},   // V too small
		{V: 1, N: 2, M: 128}, // M too large
		{V: 1, N: 2, M: 4, K: -1},
	}
	for _, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v.Validate() = nil, want error", p)
		}
	}
}

func TestEffK(t *testing.T) {
	if got := NM(2, 4).EffK(); got != DefaultK {
		t.Errorf("default EffK = %d, want %d", got, DefaultK)
	}
	if got := (VNM{V: 1, N: 2, M: 4, K: 2}).EffK(); got != 2 {
		t.Errorf("explicit EffK = %d, want 2", got)
	}
}

func TestVectorValid(t *testing.T) {
	p := NM(2, 4)
	for _, tc := range []struct {
		bits  uint64
		valid bool
	}{
		{0b0000, true},
		{0b0001, true},
		{0b0011, true},
		{0b1010, true},
		{0b0111, false},
		{0b1111, false},
	} {
		if got := p.VectorValid(tc.bits); got != tc.valid {
			t.Errorf("VectorValid(%04b) = %v, want %v", tc.bits, got, tc.valid)
		}
	}
}

func TestPScoreSmall(t *testing.T) {
	// 4x4 matrix, pattern 2:4 -> one segment per row.
	// Rows 0 and 2 have 3 nonzeros (invalid), rows 1, 3 valid.
	m := mustMatrix(t,
		"1110",
		"1100",
		"0111",
		"0000",
	)
	p := NM(2, 4)
	if got := PScore(m, p); got != 2 {
		t.Errorf("PScore = %d, want 2", got)
	}
	segScores := SegmentPScores(m, p)
	if len(segScores) != 1 || segScores[0] != 2 {
		t.Errorf("SegmentPScores = %v, want [2]", segScores)
	}
}

func TestPScoreMultipleSegments(t *testing.T) {
	// 8x8, 2:4: two segments. Row 0 violates in both, row 1 only in the
	// second.
	m := mustMatrix(t,
		"11101110",
		"10001011",
		"00000000",
		"00000000",
		"00000000",
		"00000000",
		"00000000",
		"00000000",
	)
	p := NM(2, 4)
	if got := PScore(m, p); got != 3 {
		t.Errorf("PScore = %d, want 3", got)
	}
	want := []int{1, 2}
	got := SegmentPScores(m, p)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SegmentPScores = %v, want %v", got, want)
			break
		}
	}
}

func TestMBScore(t *testing.T) {
	// V=4, M=8, K=4. One 8x8 matrix has two meta-block rows.
	// Top block (rows 0-3) uses columns {0,1,2,3,4} -> 5 > 4 invalid.
	// Bottom block (rows 4-7) uses columns {0,1} -> valid.
	m := mustMatrix(t,
		"11000000",
		"00110000",
		"00001000",
		"00000000",
		"11000000",
		"11000000",
		"00000000",
		"00000000",
	)
	p := New(4, 2, 8)
	if got := MBScore(m, p); got != 1 {
		t.Errorf("MBScore = %d, want 1", got)
	}
	if MetaBlockVerticalValid(m, p, 0, 0) {
		t.Error("top meta-block should violate vertical constraint")
	}
	if !MetaBlockVerticalValid(m, p, 4, 0) {
		t.Error("bottom meta-block should satisfy vertical constraint")
	}
}

func TestNMIsSpecialCaseOfVNM(t *testing.T) {
	// For V=1 and N <= K, the vertical constraint is implied by the
	// horizontal one: MBScore must be 0 whenever PScore is 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		m := bitmat.New(n)
		// Build rows with exactly <=2 nonzeros per 4-window.
		for i := 0; i < n; i++ {
			for s := 0; s < n/4; s++ {
				k := rng.Intn(3) // 0..2 nonzeros
				for c := 0; c < k; c++ {
					m.Set(i, s*4+rng.Intn(4))
				}
			}
		}
		p := NM(2, 4)
		if PScore(m, p) != 0 {
			return true // vacuous for this sample
		}
		return MBScore(m, p) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestImprovementRate(t *testing.T) {
	for _, tc := range []struct {
		initial, final int
		want           float64
	}{
		{100, 0, 1},
		{100, 50, 0.5},
		{100, 100, 0},
		{0, 0, 1},
		{0, 5, 0},
	} {
		if got := ImprovementRate(tc.initial, tc.final); got != tc.want {
			t.Errorf("ImprovementRate(%d,%d) = %v, want %v", tc.initial, tc.final, got, tc.want)
		}
	}
}

func TestSegmentNNZ(t *testing.T) {
	m := mustMatrix(t,
		"11100001",
		"10000000",
		"00000000",
		"00000000",
		"00000000",
		"00000000",
		"00000000",
		"00000000",
	)
	got := SegmentNNZ(m, NM(2, 4))
	want := []int{4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SegmentNNZ = %v, want %v", got, want)
		}
	}
}

func TestPScoreMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 48
	m := bitmat.New(n)
	for k := 0; k < 500; k++ {
		m.Set(rng.Intn(n), rng.Intn(n))
	}
	for _, p := range []VNM{NM(2, 4), NM(2, 8), New(4, 2, 8), New(8, 2, 16)} {
		brute := 0
		for i := 0; i < n; i++ {
			for s := 0; s < m.NumSegments(p.M); s++ {
				cnt := 0
				for c := 0; c < p.M && s*p.M+c < n; c++ {
					if m.Get(i, s*p.M+c) {
						cnt++
					}
				}
				if cnt > p.N {
					brute++
				}
			}
		}
		if got := PScore(m, p); got != brute {
			t.Errorf("%v: PScore = %d, brute = %d", p, got, brute)
		}
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("2:4")
	if err != nil || p != NM(2, 4) {
		t.Errorf("Parse(2:4) = %v, %v", p, err)
	}
	p, err = Parse("16:2:16")
	if err != nil || p != New(16, 2, 16) {
		t.Errorf("Parse(16:2:16) = %v, %v", p, err)
	}
	for _, bad := range []string{"", "2", "a:b", "2:3", "1:2:3:4", "0:4"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func FuzzParse(f *testing.F) {
	f.Add("2:4")
	f.Add("16:2:16")
	f.Add(":::")
	f.Add("-1:4")
	f.Add("2:4:8:16")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		// Anything accepted must be valid and round-trip through its
		// string form.
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse accepted invalid pattern %v: %v", p, err)
		}
		q, err := Parse(p.String())
		if err != nil || q != p {
			t.Fatalf("pattern %v does not round-trip: %v %v", p, q, err)
		}
	})
}
