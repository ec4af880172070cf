package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dyn"
	"repro/internal/graph"
)

// BenchmarkMutate prices one 4-op mutation batch (two inserts, and the
// deletes of the two edges inserted the iteration before, so the graph
// stays at its steady-state size) on a hybrid-mode ER engine at three
// graph sizes. An epoch patches only the rows the batch touches, so the
// per-batch time should track the batch, not n.
//
//	go test ./internal/serve/ -run '^$' -bench BenchmarkMutate -benchtime 200x
func BenchmarkMutate(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		var e *Engine
		var live [][2]int // inserted edges, oldest first
		rng := rand.New(rand.NewSource(int64(n)))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if e == nil {
				var err error
				e, err = NewEngine(graph.ErdosRenyi(n, 8/float64(n), 1),
					EngineConfig{Seed: 1, ShardRows: 512, CacheRows: 4096, Mode: ModeHybrid, Mutable: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			moved := 0 // batches whose repair swaps or rebuild moved the permutation
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := make([]dyn.Mutation, 0, 4)
				for k := 0; k < 2; k++ {
					batch = append(batch, dyn.Mutation{Op: dyn.OpInsert, U: rng.Intn(n), V: rng.Intn(n)})
				}
				nd := min(2, len(live))
				for _, ed := range live[:nd] {
					batch = append(batch, dyn.Mutation{Op: dyn.OpDelete, U: ed[0], V: ed[1]})
				}
				live = live[nd:]
				out, err := e.Mutate(batch)
				if err != nil {
					b.Fatal(err)
				}
				if out.Batch.RepairSwaps > 0 || out.Batch.Rebuilt {
					moved++
				}
				for _, m := range out.Batch.Accepted {
					if m.Op == dyn.OpInsert {
						live = append(live, [2]int{m.U, m.V})
					}
				}
			}
			b.ReportMetric(float64(moved)/float64(b.N), "permuted/op")
		})
	}
}
