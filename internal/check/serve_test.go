package check

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/serve"
)

func serveTestGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	return graph.ErdosRenyi(n, 8/float64(n), 42)
}

// TestServeEquivalence is the full service-level oracle: hybrid-mode
// engine, row cache small enough to churn, a one-deep shard cache, a
// multi-client script, and a fault plan that degrades one shard build
// (transient at serve/shard) — the SPTC→CSR ladder path.
func TestServeEquivalence(t *testing.T) {
	g := serveTestGraph(t, 256)
	ecfg := serve.EngineConfig{
		Seed: 7, ShardRows: 64, CacheRows: 16, ShardCap: 1,
	}
	script := serve.ScriptConfig{
		Seed: 3, Clients: 4, Requests: 8, N: 256, MaxNodes: 5, ClassifyEvery: 3,
	}
	if err := ServeEquivalence(g, ecfg, script, "seed=5; transient@serve/shard:2", nil); err != nil {
		t.Fatal(err)
	}
}

// TestServeEquivalenceCSR exercises the pure-CSR mode, where even the
// degraded gather path is bit-identical (no tolerance needed, but the
// oracle's bound must hold trivially).
func TestServeEquivalenceCSR(t *testing.T) {
	g := serveTestGraph(t, 192)
	ecfg := serve.EngineConfig{
		Seed: 9, ShardRows: 64, Mode: serve.ModeCSR,
	}
	script := serve.ScriptConfig{
		Seed: 4, Clients: 2, Requests: 6, N: 192, MaxNodes: 4, ClassifyEvery: 2,
	}
	if err := ServeEquivalence(g, ecfg, script, "seed=1; crash@serve/shard:1", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
}

// TestServeEquivalenceNoFaultPlan pins the clean-only path: an empty
// plan skips the fault branch entirely and the oracle still passes.
func TestServeEquivalenceNoFaultPlan(t *testing.T) {
	g := serveTestGraph(t, 96)
	ecfg := serve.EngineConfig{Seed: 2, ShardRows: 32}
	script := serve.ScriptConfig{
		Seed: 5, Clients: 2, Requests: 3, N: 96, MaxNodes: 3,
	}
	if err := ServeEquivalence(g, ecfg, script, "", []int{1}); err != nil {
		t.Fatal(err)
	}
}

// TestServeEquivalenceErrors pins the oracle's own failure modes:
// invalid inputs must surface as errors, not panics or silent passes.
func TestServeEquivalenceErrors(t *testing.T) {
	g := serveTestGraph(t, 96)
	okEcfg := serve.EngineConfig{Seed: 2, ShardRows: 32}
	okScript := serve.ScriptConfig{Seed: 5, Clients: 1, Requests: 2, N: 96, MaxNodes: 3}
	cases := []struct {
		name   string
		ecfg   serve.EngineConfig
		script serve.ScriptConfig
		plan   string
	}{
		{"bad script", okEcfg, serve.ScriptConfig{Clients: 0, Requests: 2, N: 96}, ""},
		{"bad engine config", serve.EngineConfig{CacheRows: -1}, okScript, ""},
		{"bad fault plan", okEcfg, okScript, "seed=notanumber"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ServeEquivalence(g, tc.ecfg, tc.script, tc.plan, []int{1}); err == nil {
				t.Fatalf("ServeEquivalence accepted %s", tc.name)
			}
		})
	}
}

// TestServeConcurrentErrors covers the driver's failure paths: a
// server config the frontend rejects, and a per-request admission
// failure (oversized request) surfacing through a client goroutine.
func TestServeConcurrentErrors(t *testing.T) {
	g := serveTestGraph(t, 64)
	eng, err := serve.NewEngine(g, serve.EngineConfig{Seed: 3, ShardRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	script := [][]*serve.Request{{{Op: serve.OpEmbed, Nodes: []int{1, 2}}}}
	if _, err := serveConcurrent(eng, script, serve.ServerConfig{QueueLimit: -1}); err == nil {
		t.Fatal("serveConcurrent accepted a negative queue limit")
	}
	if _, err := serveConcurrent(eng, script, serve.ServerConfig{MaxRequestNodes: 1}); err == nil {
		t.Fatal("serveConcurrent passed an oversized request through admission")
	}
}

// TestServeResponseComparators pins the comparison helpers' failure
// branches on fabricated response sets: shape, class and float-bit
// mismatches for the bitwise claim, bound violations for the
// tolerance claim.
func TestServeResponseComparators(t *testing.T) {
	embed := func(v float32) [][]*serve.Response {
		return [][]*serve.Response{{{Op: serve.OpEmbed, Rows: [][]float32{{v}}}}}
	}
	ref := embed(1)
	if err := bitwiseResponses("self", ref, ref); err != nil {
		t.Fatalf("bitwise self-comparison failed: %v", err)
	}
	shape := [][]*serve.Response{{{Op: serve.OpEmbed}}}
	if err := bitwiseResponses("shape", shape, ref); err == nil {
		t.Fatal("bitwiseResponses missed a shape mismatch")
	}
	classes := func(c int) [][]*serve.Response {
		return [][]*serve.Response{{{Op: serve.OpClassify, Classes: []int{c}}}}
	}
	if err := bitwiseResponses("class", classes(0), classes(1)); err == nil {
		t.Fatal("bitwiseResponses missed a class mismatch")
	}
	if err := bitwiseResponses("bits", embed(2), ref); err == nil {
		t.Fatal("bitwiseResponses missed a float-bit mismatch")
	}
	if err := toleranceResponses("near", embed(1.001), ref, 0.01); err != nil {
		t.Fatalf("toleranceResponses rejected an in-bound delta: %v", err)
	}
	if err := toleranceResponses("far", embed(2), ref, 0.01); err == nil {
		t.Fatal("toleranceResponses missed an out-of-bound delta")
	}
}

// epochStream splits a seeded mutation stream into batches of four and
// appends to every other batch an insert followed by a delete of the
// same vertex pair — a net no-op when the edge was absent.
func epochStream(g *graph.Graph, nBatches int, seed int64) [][]dyn.Mutation {
	st := dyn.GenerateStream(g, 4*nBatches, seed)
	n := g.N()
	var out [][]dyn.Mutation
	for i := 0; i < nBatches; i++ {
		b := append([]dyn.Mutation(nil), st.Ops[4*i:4*i+4]...)
		if i%2 == 1 {
			u, v := i%n, (7*i+3)%n
			b = append(b, dyn.Mutation{Op: dyn.OpInsert, U: u, V: v}, dyn.Mutation{Op: dyn.OpDelete, U: u, V: v})
		}
		out = append(out, b)
	}
	return out
}

// TestEpochEquivalence: patched epochs answer every node bit-identically
// to a from-scratch engine after every batch, at workers {1, 2, 4},
// Hops {1, 2, 3}, in ModeCSR and ModeHybrid. The ER graph is large
// enough that balls stay partial (patches and repairs under the default
// budget); the community graph under an impossibly small budget forces
// staleness rebuilds, so the rebuild-every-row path runs too.
func TestEpochEquivalence(t *testing.T) {
	community, err := datasets.Family("community", 40, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		g      *graph.Graph
		budget float64
	}{
		{"er", serveTestGraph(t, 256), 0},
		{"community-rebuild", community, 1e-12},
	}
	var total EpochCoverage
	for _, c := range cases {
		batches := epochStream(c.g, 10, 5)
		for _, hops := range []int{1, 2, 3} {
			for _, mode := range []serve.Mode{serve.ModeCSR, serve.ModeHybrid} {
				ecfg := serve.EngineConfig{Seed: 7, ShardRows: 32, Mode: mode, Hops: hops, StalenessBudget: c.budget}
				cov, err := EpochEquivalence(c.g, ecfg, batches, t.TempDir(), []int{1, 2, 4})
				if err != nil {
					t.Fatalf("%s hops=%d mode=%s: %v", c.name, hops, mode, err)
				}
				t.Logf("%s hops=%d mode=%s: %+v", c.name, hops, mode, cov)
				total.Patched += cov.Patched
				total.Deletes += cov.Deletes
				total.Cancelled += cov.Cancelled
				total.RepairSwaps += cov.RepairSwaps
				total.Rebuilds += cov.Rebuilds
			}
		}
	}
	if total.Patched == 0 || total.Deletes == 0 || total.Cancelled == 0 || total.RepairSwaps == 0 || total.Rebuilds == 0 {
		t.Fatalf("stream missed an epoch path: %+v", total)
	}
}

// FuzzEpochPatch drives arbitrary small graphs and mutation batches
// through EpochEquivalence. The first byte picks the configuration —
// Hops 1..3, CSR or hybrid dispatch, the default or an impossibly small
// staleness budget, batches of 1..4 ops — and the rest decodes as in
// FuzzIncrementalVsScratch: a graph, then mutation triples.
func FuzzEpochPatch(f *testing.F) {
	f.Add([]byte{0, 4, 2, 0, 1, 1, 2, 0, 2, 3, 1, 2, 3})
	f.Add([]byte{10, 1, 0, 0, 0, 0})
	for ri, reg := range Regimes() {
		if ri >= 4 {
			break
		}
		g := reg.RandomGraph(14, int64(ri))
		st := dyn.GenerateStream(g, 8, int64(ri))
		for _, cfg := range []byte{byte(ri), byte(3*ri + 19)} {
			f.Add(append([]byte{cfg}, encodeDynCorpus(g, st)...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := data[0]
		g, st := dynCorpusFromBytes(data[1:])
		if g.N() == 0 {
			return // an engine needs a vertex
		}
		if len(st.Ops) > 16 {
			st.Ops = st.Ops[:16] // bound per-iteration oracle cost
		}
		ecfg := serve.EngineConfig{Seed: 3, ShardRows: 8, Hops: 1 + int(c%3), Mode: serve.ModeCSR}
		if c/3%2 == 1 {
			ecfg.Mode = serve.ModeHybrid
		}
		if c/6%2 == 1 {
			ecfg.StalenessBudget = 1e-12
		}
		size := 1 + int(c/12%4)
		var batches [][]dyn.Mutation
		for lo := 0; lo < len(st.Ops); lo += size {
			batches = append(batches, st.Ops[lo:min(lo+size, len(st.Ops))])
		}
		if _, err := EpochEquivalence(g, ecfg, batches, t.TempDir(), []int{1, 2}); err != nil {
			t.Fatal(err)
		}
	})
}
