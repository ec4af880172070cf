package venom

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// mustDecompress expands a compressed matrix that the test constructed
// to be structurally valid, failing the test on a DecompressError.
func mustDecompress(t *testing.T, m *Matrix) *csr.Matrix {
	t.Helper()
	out, err := m.Decompress()
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	return out
}

// conformingMatrix builds a CSR matrix guaranteed to conform to p: each
// V-row block places up to N nonzeros per row within a fixed set of up
// to K columns of each touched segment.
func conformingMatrix(n int, p pattern.VNM, seed int64) *csr.Matrix {
	rng := rand.New(rand.NewSource(seed))
	k := p.EffK()
	var rows, cols []int32
	var vals []float32
	blockRows := (n + p.V - 1) / p.V
	segs := (n + p.M - 1) / p.M
	for br := 0; br < blockRows; br++ {
		for seg := 0; seg < segs; seg++ {
			if rng.Float64() < 0.6 {
				continue // leave block empty
			}
			// Choose up to k columns in this segment.
			width := n - seg*p.M
			if width > p.M {
				width = p.M
			}
			nc := 1 + rng.Intn(k)
			if nc > width {
				nc = width
			}
			chosen := rng.Perm(width)[:nc]
			for dr := 0; dr < p.V; dr++ {
				r := br*p.V + dr
				if r >= n {
					break
				}
				cnt := rng.Intn(p.N + 1)
				if cnt > nc {
					cnt = nc
				}
				for _, ci := range rng.Perm(nc)[:cnt] {
					rows = append(rows, int32(r))
					cols = append(cols, int32(seg*p.M+chosen[ci]))
					vals = append(vals, rng.Float32()+0.1)
				}
			}
		}
	}
	m, err := csr.FromEntries(n, rows, cols, vals)
	if err != nil {
		panic(err)
	}
	return m
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	for _, p := range []pattern.VNM{pattern.NM(2, 4), pattern.New(4, 2, 8), pattern.New(8, 2, 16)} {
		a := conformingMatrix(64, p, int64(p.M))
		c, err := Compress(a, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := c.ValidateMeta(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		back := mustDecompress(t, c)
		if dense.MaxAbsDiff(a.ToDense(), back.ToDense()) != 0 {
			t.Errorf("%v: decompress differs from original", p)
		}
	}
}

func TestCompressRejectsViolations(t *testing.T) {
	// Horizontal violation: 3 nonzeros in a 4-window with N=2.
	a, err := csr.FromEntries(8,
		[]int32{0, 0, 0},
		[]int32{0, 1, 2},
		[]float32{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compress(a, pattern.NM(2, 4))
	var ce *ConformError
	if !errors.As(err, &ce) {
		t.Fatalf("want ConformError, got %v", err)
	}
	if ce.RowNNZ == 0 {
		t.Errorf("want horizontal violation, got %+v", ce)
	}
	// Vertical violation: 5 distinct columns in a V=4, M=8, K=4 tile.
	var rows, cols []int32
	var vals []float32
	for i := 0; i < 5; i++ {
		rows = append(rows, int32(i%4))
		cols = append(cols, int32(i))
		vals = append(vals, 1)
	}
	// spread: rows 0..3 cover columns 0..4 with row 0 having two.
	rows[4] = 0
	b, err := csr.FromEntries(8, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compress(b, pattern.New(4, 2, 8))
	if !errors.As(err, &ce) || ce.Cols == 0 {
		t.Fatalf("want vertical ConformError, got %v", err)
	}
}

func TestCompressEmptyMatrix(t *testing.T) {
	a, _ := csr.FromEntries(16, nil, nil, nil)
	c, err := Compress(a, pattern.NM(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumBlocks() != 0 {
		t.Errorf("empty matrix stored %d blocks", c.NumBlocks())
	}
	if mustDecompress(t, c).NNZ() != 0 {
		t.Error("decompressed empty matrix has nonzeros")
	}
}

func TestPruneToConform(t *testing.T) {
	// Dense-ish random matrix; pruning must yield a conforming matrix.
	rng := rand.New(rand.NewSource(5))
	var rows, cols []int32
	var vals []float32
	n := 32
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				rows = append(rows, int32(i))
				cols = append(cols, int32(j))
				vals = append(vals, rng.Float32()+0.01)
			}
		}
	}
	a, err := csr.FromEntries(n, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.NM(2, 4)
	pruned, stats, err := PruneToConform(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compress(pruned, p); err != nil {
		t.Fatalf("pruned matrix does not conform: %v", err)
	}
	if stats.PrunedNNZ == 0 {
		t.Error("expected pruning on dense matrix")
	}
	if stats.Ratio() <= 0 || stats.Ratio() >= 1 {
		t.Errorf("prune ratio = %v", stats.Ratio())
	}
	// Kept entries must be unchanged.
	for r := 0; r < n; r++ {
		pcols, pvals := pruned.Row(r)
		for i, c := range pcols {
			if a.At(r, int(c)) != pvals[i] {
				t.Fatalf("pruning changed a kept value at (%d,%d)", r, c)
			}
		}
	}
}

func TestPruneKeepsLargestMagnitude(t *testing.T) {
	// Row 0 has 3 entries in one 4-window; the smallest must go.
	a, err := csr.FromEntries(4,
		[]int32{0, 0, 0},
		[]int32{0, 1, 2},
		[]float32{0.9, 0.1, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	pruned, stats, err := PruneToConform(a, pattern.NM(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrunedNNZ != 1 {
		t.Fatalf("pruned %d entries, want 1", stats.PrunedNNZ)
	}
	if pruned.At(0, 1) != 0 {
		t.Error("smallest-magnitude entry survived")
	}
	if pruned.At(0, 0) != 0.9 || pruned.At(0, 2) != 0.8 {
		t.Error("large-magnitude entries lost")
	}
}

func TestPruneConformingIsIdentity(t *testing.T) {
	p := pattern.New(4, 2, 8)
	a := conformingMatrix(64, p, 9)
	pruned, stats, err := PruneToConform(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrunedNNZ != 0 {
		t.Errorf("pruned %d entries of a conforming matrix", stats.PrunedNNZ)
	}
	if dense.MaxAbsDiff(a.ToDense(), pruned.ToDense()) != 0 {
		t.Error("conforming matrix modified by pruning")
	}
}

func TestPruneVerticalConstraint(t *testing.T) {
	// V=2, M=8, K=4: rows 0-1 use 6 distinct columns; pruning must cut
	// down to 4 columns.
	a, err := csr.FromEntries(8,
		[]int32{0, 0, 0, 1, 1, 1},
		[]int32{0, 1, 2, 3, 4, 5},
		[]float32{5, 4, 3, 2, 1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.New(2, 2, 8)
	pruned, stats, err := PruneToConform(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compress(pruned, p); err != nil {
		t.Fatalf("pruned matrix does not conform: %v", err)
	}
	// Vertical pruning removes columns 4 and 5 (smallest column
	// magnitudes); then row 0 still has 3 entries in its 8-window, so
	// the horizontal top-N step removes the smallest (column 2).
	if stats.PrunedNNZ != 3 {
		t.Errorf("pruned %d, want 3 (columns 4, 5 and entry (0,2))", stats.PrunedNNZ)
	}
	if pruned.At(1, 4) != 0 || pruned.At(1, 5) != 0 || pruned.At(0, 2) != 0 {
		t.Error("wrong entries pruned")
	}
	if pruned.At(0, 0) != 5 || pruned.At(0, 1) != 4 || pruned.At(1, 3) != 2 {
		t.Error("kept entries damaged")
	}
}

func TestCompressedBytesSmallerThanDense(t *testing.T) {
	g := graph.Banded(256, 2, 0.9, 1)
	a := csr.FromGraph(g)
	p := pattern.NM(2, 4)
	pruned, _, err := PruneToConform(a, p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(pruned, p)
	if err != nil {
		t.Fatal(err)
	}
	denseBytes := 256 * 256 * 4
	if c.CompressedBytes() >= denseBytes {
		t.Errorf("compressed %d bytes >= dense %d", c.CompressedBytes(), denseBytes)
	}
}

func BenchmarkCompress(b *testing.B) {
	p := pattern.NM(2, 4)
	a := conformingMatrix(1024, p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(a, p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompressIgnoresExplicitZeros is the regression test for the
// explicit-zero bug the differential fuzzers surfaced: an explicitly
// stored zero value (e.g. duplicate triplets summing to zero) used to
// consume a packed slot and column budget, making Compress reject
// conforming matrices and making Decompress (which cannot distinguish
// a stored zero from padding) drop entries on the round trip.
func TestCompressIgnoresExplicitZeros(t *testing.T) {
	p := pattern.NM(2, 4)
	// Row 0 holds two real nonzeros and one explicit zero in one
	// segment: conforming once zeros are ignored, a horizontal
	// violation if they are counted.
	a, err := csr.FromEntries(4,
		[]int32{0, 0, 0, 0, 1},
		[]int32{0, 1, 2, 2, 1},
		[]float32{1, 2, 0.5, -0.5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.At(0, 2); got != 0 {
		t.Fatalf("setup: want explicit zero at (0,2), got %g", got)
	}
	if a.NNZ() != 4 {
		t.Fatalf("setup: want 4 stored entries, got %d", a.NNZ())
	}
	c, err := Compress(a, p)
	if err != nil {
		t.Fatalf("conforming matrix with explicit zero rejected: %v", err)
	}
	if err := c.ValidateMeta(); err != nil {
		t.Fatal(err)
	}
	back := mustDecompress(t, c)
	if back.NNZ() != 3 {
		t.Errorf("round trip kept %d entries, want the 3 real nonzeros", back.NNZ())
	}
	for _, e := range []struct {
		r, c int
		v    float32
	}{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}} {
		if got := back.At(e.r, e.c); got != e.v {
			t.Errorf("round trip (%d,%d) = %g, want %g", e.r, e.c, got, e.v)
		}
	}
	// A whole column of explicit zeros must not count against the
	// vertical K budget either.
	b, err := csr.FromEntries(4,
		[]int32{0, 0, 0, 0, 0},
		[]int32{0, 1, 2, 3, 3},
		[]float32{0, 0, 0, 0.5, -0.5})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Compress(b, pattern.NM(1, 4))
	if err != nil {
		t.Fatalf("all-zero columns counted against budget: %v", err)
	}
	if got := mustDecompress(t, cb).NNZ(); got != 0 {
		t.Errorf("round trip of numerically-empty matrix has %d entries", got)
	}
}

// TestDecompressCorruptedColumns: a compressed matrix whose column
// table was corrupted (the fault-injection layer's bit-flip model can
// produce this) decompresses to a typed *DecompressError carrying the
// block coordinates — it must not panic.
func TestDecompressCorruptedColumns(t *testing.T) {
	p := pattern.NM(2, 4)
	a := conformingMatrix(16, p, 3)
	c, err := Compress(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumBlocks() == 0 {
		t.Fatal("test matrix compressed to zero blocks")
	}
	// Corrupt the first nonzero slot's resolved column to an
	// out-of-range id.
	vpb := c.ValuesPerBlock()
	found := false
	for off := 0; off < len(c.Values) && !found; off++ {
		if c.Values[off] == 0 {
			continue
		}
		bi := off / vpb
		c.BlockCols[bi*c.K+int(c.Meta[off])] = int32(c.N + 100)
		found = true
	}
	if !found {
		t.Fatal("no nonzero slot to corrupt")
	}
	_, err = c.Decompress()
	var de *DecompressError
	if !errors.As(err, &de) {
		t.Fatalf("Decompress of corrupted matrix = %v, want *DecompressError", err)
	}
	if de.Col != int32(c.N+100) {
		t.Errorf("DecompressError.Col = %d, want %d", de.Col, c.N+100)
	}
	if de.Block < 0 || de.BlockRow < 0 || de.Row < 0 || de.Row >= c.N {
		t.Errorf("DecompressError coordinates out of range: %+v", de)
	}
}
