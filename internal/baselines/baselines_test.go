package baselines

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/graph"
	"repro/internal/pattern"
)

func TestJigsawReducesViolationsButBreaksSymmetry(t *testing.T) {
	g := graph.BarabasiAlbert(128, 3, 1)
	perm := rand.New(rand.NewSource(2)).Perm(128)
	pg, _ := g.ApplyPermutation(perm)
	m := pg.ToBitMatrix()
	p := pattern.NM(2, 4)
	res := Jigsaw(m, p)
	if res.FinalPScore > res.InitialPScore {
		t.Errorf("Jigsaw worsened PScore: %d -> %d", res.InitialPScore, res.FinalPScore)
	}
	// Column permutation must be a bijection.
	seen := make([]bool, 128)
	for _, c := range res.ColPerm {
		if seen[c] {
			t.Fatal("column permutation has duplicates")
		}
		seen[c] = true
	}
	// NNZ preserved.
	if res.Matrix.NNZ() != m.NNZ() {
		t.Error("Jigsaw changed NNZ")
	}
	// The headline difference from SOGRE: symmetry is (generally) lost.
	if res.Symmetric {
		t.Log("Jigsaw output happened to stay symmetric on this input")
	}
}

func TestJigsawColumnPermutationCorrect(t *testing.T) {
	// out[i][posJ] must equal m[i][ColPerm[posJ]].
	m := bitmat.New(16)
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 40; k++ {
		m.Set(rng.Intn(16), rng.Intn(16))
	}
	res := Jigsaw(m, pattern.NM(2, 4))
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if res.Matrix.Get(i, j) != m.Get(i, res.ColPerm[j]) {
				t.Fatalf("column permutation inconsistent at (%d,%d)", i, j)
			}
		}
	}
}

func BenchmarkJigsaw(b *testing.B) {
	g := graph.BarabasiAlbert(512, 3, 1)
	m := g.ToBitMatrix()
	p := pattern.NM(2, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Jigsaw(m, p)
	}
}
