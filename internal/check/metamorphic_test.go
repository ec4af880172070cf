package check

import (
	"math/rand"
	"testing"

	"repro/internal/csr"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/spmm"
)

// randomPerm returns a seeded permutation and its inverse.
func randomPerm(n int, seed int64) (perm, inv []int) {
	perm = rand.New(rand.NewSource(seed)).Perm(n)
	inv = make([]int, n)
	for i, p := range perm {
		inv[p] = i
	}
	return perm, inv
}

// TestMetamorphicPermInverseIsIdentity: renumbering a graph by a random
// permutation and then by its inverse restores it exactly, so every
// derived quantity — Conformity scores and SpMM output included — is
// unchanged. This is the losslessness claim in metamorphic form.
func TestMetamorphicPermInverseIsIdentity(t *testing.T) {
	for _, rg := range Regimes()[:5] {
		rg := rg
		t.Run(rg.Name, func(t *testing.T) {
			t.Parallel()
			g := rg.RandomGraph(150, 21)
			perm, inv := randomPerm(g.N(), 31)
			g1, err := g.ApplyPermutation(perm)
			if err != nil {
				t.Fatal(err)
			}
			// Round trip: (g by perm) by inv is g again because
			// position i of the round trip holds perm[inv[i]] = i.
			g2, err := g1.ApplyPermutation(inv)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range testPatterns {
				m, m2 := g.ToBitMatrix(), g2.ToBitMatrix()
				if pattern.PScore(m, p) != pattern.PScore(m2, p) || pattern.MBScore(m, p) != pattern.MBScore(m2, p) {
					t.Fatalf("pattern %v: conformity changed across perm round trip", p)
				}
			}
			b := RandomDense(g.N(), 13, 1, 5)
			c1 := spmm.CSR(sched.Default(), nil, csr.FromGraph(g), b)
			c2 := spmm.CSR(sched.Default(), nil, csr.FromGraph(g2), b)
			if err := Compare("perm-roundtrip", c2, c1, csr.FromGraph(g), b, DefaultTol()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMetamorphicPermEquivariance: a single permutation commutes with
// SpMM — CSR(P A Pᵀ) x (P B) equals the row permutation of CSR(A) x B
// up to float32 summation-order tolerance. The reordered execution
// path therefore computes the same aggregation as the original, which
// is exactly what makes SOGRE deployment-safe for GNNs.
func TestMetamorphicPermEquivariance(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rg := Regimes()[int(seed)%len(Regimes())]
		g := rg.RandomGraph(130, seed)
		a := csr.FromGraph(g)
		perm, _ := randomPerm(g.N(), seed*13)
		pa, err := a.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		b := RandomDense(g.N(), 11, 1, seed+50)
		pb := RandomDense(g.N(), 11, 1, seed+50)
		for i := 0; i < g.N(); i++ {
			copy(pb.Row(i), b.Row(perm[i]))
		}
		got := spmm.CSR(sched.Default(), nil, pa, pb)
		want := spmm.CSR(sched.Default(), nil, a, b)
		// Undo the row permutation on the output before comparing.
		unperm := got.Clone()
		for i := 0; i < g.N(); i++ {
			copy(unperm.Row(perm[i]), got.Row(i))
		}
		if err := Compare("perm-equivariance", unperm, want, a, b, DefaultTol()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
