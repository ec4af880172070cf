package csr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/graph"
)

func TestFromEntriesSortedDedup(t *testing.T) {
	m, err := FromEntries(3,
		[]int32{0, 0, 0, 2},
		[]int32{2, 1, 2, 0},
		[]float32{1, 5, 2, 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (duplicates summed)", m.NNZ())
	}
	if m.At(0, 2) != 3 {
		t.Errorf("At(0,2) = %v, want 3", m.At(0, 2))
	}
	if m.At(0, 1) != 5 || m.At(2, 0) != 7 || m.At(1, 1) != 0 {
		t.Error("values wrong")
	}
	cols, _ := m.Row(0)
	if cols[0] != 1 || cols[1] != 2 {
		t.Error("row not sorted")
	}
}

func TestFromEntriesErrors(t *testing.T) {
	if _, err := FromEntries(2, []int32{0}, []int32{5}, []float32{1}); err == nil {
		t.Error("want error for out-of-range column")
	}
	if _, err := FromEntries(2, []int32{0, 1}, []int32{0}, []float32{1}); err == nil {
		t.Error("want error for mismatched arrays")
	}
}

func TestFromGraphAndBitMatrixAgree(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.15, 3)
	a := FromGraph(g)
	b := FromBitMatrix(g.ToBitMatrix())
	if a.NNZ() != b.NNZ() {
		t.Fatalf("NNZ differ: %d vs %d", a.NNZ(), b.NNZ())
	}
	for i := 0; i < 40; i++ {
		ac, _ := a.Row(i)
		bc, _ := b.Row(i)
		for k := range ac {
			if ac[k] != bc[k] {
				t.Fatalf("row %d differs", i)
			}
		}
	}
	// Round trip through bitmat.
	if !a.ToBitMatrix().Equal(g.ToBitMatrix()) {
		t.Error("ToBitMatrix round trip differs")
	}
}

func TestPermuteWeighted(t *testing.T) {
	m, err := FromEntries(4,
		[]int32{0, 1, 2, 3},
		[]int32{1, 0, 3, 2},
		[]float32{5, 5, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	perm := []int{2, 3, 0, 1}
	p, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	// New (0,1) should be old (2,3) = 9.
	if p.At(0, 1) != 9 || p.At(2, 3) != 5 {
		t.Errorf("permuted values wrong: %v %v", p.At(0, 1), p.At(2, 3))
	}
	if _, err := m.Permute([]int{0}); err == nil {
		t.Error("want error for bad permutation")
	}
}

func TestSymNormalizedRegularGraph(t *testing.T) {
	// On a k-regular graph every row of D^{-1/2}(A+I)D^{-1/2} sums to 1.
	g := graph.Grid2D(1, 8) // path: not regular — use ring instead
	_ = g
	// Build a ring (2-regular).
	var edges [][2]int
	n := 12
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	ring, err := graph.NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	m := SymNormalized(ring)
	for i := 0; i < n; i++ {
		_, vals := m.Row(i)
		var sum float64
		for _, v := range vals {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v, want 1", i, sum)
		}
	}
	// Self loops present.
	if m.At(3, 3) == 0 {
		t.Error("self-loop missing")
	}
	// Symmetric.
	for i := 0; i < n; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			if math.Abs(float64(m.At(int(c), i)-vals[k])) > 1e-6 {
				t.Fatalf("not symmetric at (%d,%d)", i, c)
			}
		}
	}
}

func TestSymNormalizedWithExistingSelfLoop(t *testing.T) {
	g, err := graph.NewFromEdges(3, [][2]int{{0, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	m := SymNormalized(g)
	// Row 0: self loop exists, no double-add. deg(0)=2 (self + edge).
	cols, _ := m.Row(0)
	if len(cols) != 2 {
		t.Errorf("row 0 has %d entries, want 2", len(cols))
	}
}

func TestRowNormalized(t *testing.T) {
	g := graph.Grid2D(3, 3)
	m := RowNormalized(g)
	for i := 0; i < m.N; i++ {
		_, vals := m.Row(i)
		var sum float64
		for _, v := range vals {
			sum += float64(v)
		}
		if len(vals) > 0 && math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestScaledLaplacian(t *testing.T) {
	g := graph.Grid2D(2, 2)
	m := ScaledLaplacian(g)
	// Entries are -1/sqrt(d_u d_v), all negative.
	for i := 0; i < m.N; i++ {
		_, vals := m.Row(i)
		for _, v := range vals {
			if v >= 0 {
				t.Errorf("scaled Laplacian entry %v >= 0", v)
			}
		}
	}
	if m.NNZ() != g.NumEdges() {
		t.Errorf("NNZ = %d, want %d", m.NNZ(), g.NumEdges())
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := FromEntries(2, []int32{0}, []int32{1}, []float32{4})
	c := m.Clone()
	c.Val[0] = 99
	if m.Val[0] == 99 {
		t.Error("Clone shares storage")
	}
}

func TestToDense(t *testing.T) {
	m, _ := FromEntries(3, []int32{0, 2}, []int32{1, 2}, []float32{4, 5})
	d := m.ToDense()
	if d.At(0, 1) != 4 || d.At(2, 2) != 5 || d.At(1, 1) != 0 {
		t.Error("ToDense values wrong")
	}
}

func TestPermutePreservesSpectrumFingerprint(t *testing.T) {
	// Trace and Frobenius norm are invariant under symmetric
	// permutation.
	rng := rand.New(rand.NewSource(9))
	g := graph.ErdosRenyi(30, 0.2, 4)
	m := FromGraph(g)
	perm := rng.Perm(30)
	p, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	frob := func(x *Matrix) float64 {
		var s float64
		for _, v := range x.Val {
			s += float64(v) * float64(v)
		}
		return s
	}
	if math.Abs(frob(m)-frob(p)) > 1e-6 {
		t.Error("Frobenius norm changed under permutation")
	}
}

func BenchmarkSymNormalized(b *testing.B) {
	g := graph.BarabasiAlbert(4096, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SymNormalized(g)
	}
}

func BenchmarkTranspose(b *testing.B) {
	g := graph.BarabasiAlbert(4096, 8, 1)
	m := FromGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Transpose()
	}
}

// bitMatrixCases are the word-boundary shapes the word-skipping
// conversions must get right: empty, one vertex, one bit short of a
// word, exactly one word, one bit over, two words plus a partial one.
// Each case sets a self-loop, empty rows and a full last word.
func bitMatrixCases() []*bitmat.Matrix {
	var out []*bitmat.Matrix
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		b := bitmat.New(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			if i%5 == 3 {
				continue // empty row
			}
			for j := 0; j < n; j++ {
				if rng.Intn(4) == 0 {
					b.Set(i, j)
				}
			}
		}
		if n > 0 {
			b.Set(0, 0) // self-loop
			for j := (n - 1) / 64 * 64; j < n; j++ {
				b.Set(n-1, j) // full last word of the last row
			}
		}
		out = append(out, b)
	}
	return out
}

// TestFromBitMatrixMatchesGetLoop checks the word-skipping conversion
// against a plain Get-loop reference, column order and exact sizes
// included.
func TestFromBitMatrixMatchesGetLoop(t *testing.T) {
	for _, b := range bitMatrixCases() {
		n := b.N()
		ref := &Matrix{N: n, RowPtr: make([]int32, n+1)}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if b.Get(i, j) {
					ref.ColIdx = append(ref.ColIdx, int32(j))
					ref.Val = append(ref.Val, 1)
				}
			}
			ref.RowPtr[i+1] = int32(len(ref.ColIdx))
		}
		got := FromBitMatrix(b)
		if got.N != n || len(got.ColIdx) != cap(got.ColIdx) || len(got.Val) != cap(got.Val) {
			t.Fatalf("n=%d: shape N=%d, cols %d/%d, vals %d/%d", n, got.N,
				len(got.ColIdx), cap(got.ColIdx), len(got.Val), cap(got.Val))
		}
		for i := 0; i <= n; i++ {
			if got.RowPtr[i] != ref.RowPtr[i] {
				t.Fatalf("n=%d: RowPtr[%d] = %d, want %d", n, i, got.RowPtr[i], ref.RowPtr[i])
			}
		}
		for k := range ref.ColIdx {
			if got.ColIdx[k] != ref.ColIdx[k] || got.Val[k] != 1 {
				t.Fatalf("n=%d: entry %d = (%d, %v), want (%d, 1)", n, k, got.ColIdx[k], got.Val[k], ref.ColIdx[k])
			}
		}
		g := graph.FromBitMatrix(b)
		for i := 0; i < n; i++ {
			nbrs := g.Neighbors(i)
			cols, _ := ref.Row(i)
			if len(nbrs) != len(cols) {
				t.Fatalf("n=%d: graph row %d has %d neighbors, want %d", n, i, len(nbrs), len(cols))
			}
			for k := range cols {
				if nbrs[k] != cols[k] {
					t.Fatalf("n=%d: graph row %d neighbor %d = %d, want %d", n, i, k, nbrs[k], cols[k])
				}
			}
		}
	}
}

// bitwiseCSR reports the first difference between two CSR matrices,
// values compared by their bits.
func bitwiseCSR(a, b *Matrix) string {
	if a.N != b.N || len(a.ColIdx) != len(b.ColIdx) || len(a.Val) != len(b.Val) {
		return fmt.Sprintf("shape %d/%d/%d vs %d/%d/%d", a.N, len(a.ColIdx), len(a.Val), b.N, len(b.ColIdx), len(b.Val))
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return fmt.Sprintf("RowPtr[%d] %d vs %d", i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || math.Float32bits(a.Val[k]) != math.Float32bits(b.Val[k]) {
			return fmt.Sprintf("entry %d (%d, %v) vs (%d, %v)", k, a.ColIdx[k], a.Val[k], b.ColIdx[k], b.Val[k])
		}
	}
	return ""
}

// TestSymNormalizedRows: rebuilding every row reproduces SymNormalized
// bit for bit, and after a run of symmetric edge flips, patching just
// the closed neighborhoods of the flipped endpoints (old and new
// adjacency) into a retired matrix's storage matches a full rebuild of
// the flipped matrix, leaving the old matrix untouched.
func TestSymNormalizedRows(t *testing.T) {
	for _, b := range bitMatrixCases() {
		n := b.N()
		sym := b.Clone()
		for i := 0; i < n; i++ {
			for _, j := range b.AppendRow(nil, i) {
				sym.Set(int(j), i)
			}
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		full := SymNormalizedRows(nil, nil, sym, all)
		if d := bitwiseCSR(full, SymNormalized(graph.FromBitMatrix(sym))); d != "" {
			t.Fatalf("n=%d: full rebuild differs from SymNormalized: %s", n, d)
		}
		if n == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(int64(n) + 7))
		cur, a := sym, full
		var spare *Matrix // a retired result whose storage the next patch reuses
		for step := 0; step < 8; step++ {
			next := cur.Clone()
			dirty := make(map[int]bool)
			for f := 0; f < 1+step%3; f++ {
				i, j := rng.Intn(n), rng.Intn(n)
				for _, m := range []*bitmat.Matrix{cur, next} {
					for _, p := range []int{i, j} {
						dirty[p] = true
						for _, q := range m.AppendRow(nil, p) {
							dirty[int(q)] = true
						}
					}
				}
				if next.Get(i, j) {
					next.Clear(i, j)
					next.Clear(j, i)
				} else {
					next.Set(i, j)
					next.Set(j, i)
				}
				for _, p := range []int{i, j} {
					for _, q := range next.AppendRow(nil, p) {
						dirty[int(q)] = true
					}
				}
			}
			rows := make([]int, 0, len(dirty))
			for p := range dirty {
				rows = append(rows, p)
			}
			sort.Ints(rows)
			before := a.Clone()
			patched := SymNormalizedRows(spare, a, next, rows)
			if d := bitwiseCSR(patched, SymNormalizedRows(nil, nil, next, all)); d != "" {
				t.Fatalf("n=%d step %d: patch differs from full rebuild: %s", n, step, d)
			}
			if d := bitwiseCSR(a, before); d != "" {
				t.Fatalf("n=%d step %d: patch wrote the old matrix: %s", n, step, d)
			}
			cur, a, spare = next, patched, a
		}
	}
}
