package serve

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/resil"
)

// mutableEngine builds the shared mutable fixture.
func mutableEngine(t testing.TB, g *graph.Graph, cfg EngineConfig) *Engine {
	t.Helper()
	cfg.Mutable = true
	e, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// coverageRequests touches every node: ball invalidation is only
// honest if rows inside AND outside the ball are probed.
func coverageRequests(n int) []*Request {
	var reqs []*Request
	for lo := 0; lo < n; lo += 16 {
		hi := lo + 16
		if hi > n {
			hi = n
		}
		nodes := make([]int, 0, hi-lo)
		for v := lo; v < hi; v++ {
			nodes = append(nodes, v)
		}
		op := OpEmbed
		if (lo/16)%3 == 2 {
			op = OpClassify
		}
		reqs = append(reqs, &Request{Op: op, Nodes: nodes})
	}
	return reqs
}

// mutatedTwin builds a read-only engine over the mutable engine's
// CURRENT graph with its CURRENT permutation adopted — the from-scratch
// reference every post-mutation response must match bit for bit.
func mutatedTwin(t testing.TB, e *Engine, cfg EngineConfig) *Engine {
	t.Helper()
	rg := graph.FromBitMatrix(e.dyn.Matrix())
	g2, err := rg.ApplyPermutation(e.inv)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Perm = e.Perm()
	twin, err := NewEngine(g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// batches splits a generated mutation stream into fixed-size batches.
func batches(st *dyn.Stream, size int) [][]dyn.Mutation {
	var out [][]dyn.Mutation
	for lo := 0; lo < len(st.Ops); lo += size {
		hi := lo + size
		if hi > len(st.Ops) {
			hi = len(st.Ops)
		}
		out = append(out, st.Ops[lo:hi])
	}
	return out
}

func TestMutateNotMutable(t *testing.T) {
	g := testGraph(t, 128)
	e, err := NewEngine(g, EngineConfig{Seed: 7, ShardRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if e.Mutable() {
		t.Fatal("read-only engine reports mutable")
	}
	if _, err := e.Mutate([]dyn.Mutation{{Op: dyn.OpInsert, U: 0, V: 1}}); !errors.Is(err, ErrNotMutable) {
		t.Fatalf("Mutate on read-only engine: %v", err)
	}
	s, err := NewServer(e, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SubmitMutate([]dyn.Mutation{{Op: dyn.OpInsert, U: 0, V: 1}}); !errors.Is(err, ErrNotMutable) {
		t.Fatalf("SubmitMutate on read-only engine: %v", err)
	}
}

// TestMutateEpochLockstep: every batch advances the epoch by exactly
// one — including a fully-rejected batch — and responses are stamped
// with the epoch they were computed against.
func TestMutateEpochLockstep(t *testing.T) {
	g := testGraph(t, 128)
	e := mutableEngine(t, g, EngineConfig{Seed: 7, ShardRows: 64, Mode: ModeCSR})
	if e.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", e.Epoch())
	}
	st := dyn.GenerateStream(g, 12, 3)
	for i, b := range batches(st, 4) {
		out, err := e.Mutate(b)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(i + 1); out.Epoch != want || e.Epoch() != want {
			t.Fatalf("batch %d: epoch %d/%d, want %d", i, out.Epoch, e.Epoch(), want)
		}
	}
	// A fully-rejected batch (vertex out of range) still advances the
	// epoch: epochs mirror WAL record sequence numbers one-to-one.
	before := e.Epoch()
	out, err := e.Mutate([]dyn.Mutation{{Op: dyn.OpInsert, U: 0, V: 99999}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Batch.Applied != 0 || len(out.Batch.Rejected) != 1 {
		t.Fatalf("outcome = %+v, want fully rejected", out.Batch)
	}
	if out.Epoch != before+1 {
		t.Fatalf("rejected batch epoch %d, want %d", out.Epoch, before+1)
	}
	resp := e.ServeBatch([]*Request{{Op: OpEmbed, Nodes: []int{5}}}, false)[0]
	if resp.Epoch != e.Epoch() {
		t.Fatalf("response epoch %d, engine epoch %d", resp.Epoch, e.Epoch())
	}
}

// TestMutateBitIdenticalToFreshEngine: after a run of mutation batches
// interleaved with (cache-warming) queries, every response matches a
// from-scratch engine built over the mutated graph — the ball
// invalidation kept exactly the rows it was allowed to keep.
func TestMutateBitIdenticalToFreshEngine(t *testing.T) {
	for _, mode := range []Mode{ModeCSR, ModeHybrid} {
		g := testGraph(t, 256)
		cfg := EngineConfig{Seed: 7, ShardRows: 64, CacheRows: 1 << 20, Mode: mode}
		e := mutableEngine(t, g, cfg)
		reqs := coverageRequests(256)
		st := dyn.GenerateStream(g, 48, 11)
		for _, b := range batches(st, 8) {
			// Warm every row so any under-invalidation would serve a
			// stale cached value after the mutation lands.
			e.ServeBatch(reqs, false)
			if _, err := e.Mutate(b); err != nil {
				t.Fatal(err)
			}
		}
		twin := mutatedTwin(t, e, cfg)
		got := e.ServeBatch(reqs, false)
		want := twin.ServeBatch(reqs, false)
		if !bitEqualResponses(want, got) {
			t.Fatalf("mode %s: mutated engine diverged from fresh engine over the mutated graph", mode)
		}
	}
}

// TestMutateRebuild: an impossibly small staleness budget forces full
// re-reorders, which move every row. A rebuild epoch drops every shard
// handle and each read re-splits the ones it needs, so the responses
// read straight after every batch — no wait, row cache warm — match a
// fresh engine over the mutated graph bit for bit.
func TestMutateRebuild(t *testing.T) {
	// The community graph compresses well, so the last reorder bought
	// real savings and drift against a tiny budget forces a rebuild
	// (an ER graph can price saved = 0, which never rebuilds).
	g, err := datasets.Family("community", 40, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := coverageRequests(g.N())
	cfg := EngineConfig{Seed: 7, ShardRows: 16, CacheRows: 1 << 20, Mode: ModeHybrid}
	live := cfg
	live.StalenessBudget = 1e-12
	e := mutableEngine(t, g, live)
	rebuilds := 0
	for i, b := range batches(dyn.GenerateStream(g, 48, 19), 8) {
		out, err := e.Mutate(b)
		if err != nil {
			t.Fatal(err)
		}
		if out.Batch.Rebuilt {
			rebuilds++
		}
		got := e.ServeBatch(reqs, false)
		twin := mutatedTwin(t, e, cfg)
		if !bitEqualResponses(twin.ServeBatch(reqs, false), got) {
			t.Fatalf("batch %d (rebuilt %v): engine diverged from a fresh engine", i, out.Batch.Rebuilt)
		}
	}
	if rebuilds == 0 {
		t.Fatal("staleness budget 1e-12 never triggered a rebuild")
	}
}

// TestMutableSnapshotRestore: a snapshot taken mid-mutation-stream
// restores bit-identically AND keeps making the same decisions — the
// restored engine and the uninterrupted one agree after further
// identical batches (the staleness baseline survived the round trip).
func TestMutableSnapshotRestore(t *testing.T) {
	g := testGraph(t, 256)
	cfg := EngineConfig{Seed: 7, ShardRows: 64, Mode: ModeCSR, Mutable: true}
	e, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := dyn.GenerateStream(g, 40, 23)
	bs := batches(st, 8)
	for _, b := range bs[:2] {
		if _, err := e.Mutate(b); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "mut.snapshot")
	if err := e.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreEngine(path, EngineConfig{Mode: ModeCSR, Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != e.Epoch() {
		t.Fatalf("restored epoch %d, want %d", r.Epoch(), e.Epoch())
	}
	reqs := coverageRequests(256)
	if !bitEqualResponses(e.ServeBatch(reqs, false), r.ServeBatch(reqs, false)) {
		t.Fatal("restored engine diverged at the snapshot point")
	}
	for _, b := range bs[2:] {
		if _, err := e.Mutate(b); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Mutate(b); err != nil {
			t.Fatal(err)
		}
	}
	if e.Epoch() != r.Epoch() {
		t.Fatalf("epochs diverged: %d vs %d", e.Epoch(), r.Epoch())
	}
	if !bitEqualResponses(e.ServeBatch(reqs, false), r.ServeBatch(reqs, false)) {
		t.Fatal("restored engine diverged after further identical batches")
	}
}

// TestSnapshotMismatchField: the fingerprint rejection names the
// mismatched field and both values (the bug was a bare ErrSnapshot
// with the field name lost in an unstructured message).
func TestSnapshotMismatchField(t *testing.T) {
	g := testGraph(t, 128)
	e, err := NewEngine(g, EngineConfig{Seed: 5, ShardRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snapshot")
	if err := e.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cfg   EngineConfig
		field string
		have  int64
	}{
		{EngineConfig{Hops: 7}, "hops", 7},
		{EngineConfig{Seed: 999}, "seed", 999},
		{EngineConfig{FeatureDim: 3}, "feature dim", 3},
		{EngineConfig{ShardRows: 12}, "shard rows", 12},
	}
	for _, c := range cases {
		_, err := RestoreEngine(path, c.cfg)
		var mm *SnapshotMismatch
		if !errors.As(err, &mm) {
			t.Fatalf("%s: error %v is not a *SnapshotMismatch", c.field, err)
		}
		if mm.Field != c.field || mm.Have != c.have {
			t.Fatalf("mismatch detail = %+v, want field %q have %d", mm, c.field, c.have)
		}
		if !errors.Is(err, ErrSnapshot) {
			t.Fatalf("%s: detail does not unwrap to ErrSnapshot", c.field)
		}
	}
}

// TestMutateFailedEpochRebuildsAll: a batch that dies between
// ApplyBatch and the epoch swap (an injected crash at "serve/epoch")
// leaves dyn's bit matrix ahead of Â and the right-hand side. The next
// batch must rebuild every row rather than patch, so its answers — and
// every later batch's — match a fresh engine over the mutated graph
// bit for bit, with the row cache warm throughout.
func TestMutateFailedEpochRebuildsAll(t *testing.T) {
	for _, mode := range []Mode{ModeCSR, ModeHybrid} {
		g := testGraph(t, 256)
		plan, err := resil.ParsePlan("crash@serve/epoch:2")
		if err != nil {
			t.Fatal(err)
		}
		cfg := EngineConfig{Seed: 7, ShardRows: 64, CacheRows: 1 << 20, Mode: mode}
		live := cfg
		live.Inj = resil.NewInjector(plan, nil)
		e := mutableEngine(t, g, live)
		reqs := coverageRequests(256)
		for i, b := range batches(dyn.GenerateStream(g, 24, 13), 4) {
			e.ServeBatch(reqs, false)
			err := resil.Protect(func() error {
				_, err := e.Mutate(b)
				return err
			})
			var crash *resil.CrashError
			if i == 1 {
				if !errors.As(err, &crash) {
					t.Fatalf("mode %s batch 1: want the injected crash, got %v", mode, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("mode %s batch %d: %v", mode, i, err)
			}
			twin := mutatedTwin(t, e, cfg)
			if !bitEqualResponses(twin.ServeBatch(reqs, false), e.ServeBatch(reqs, false)) {
				t.Fatalf("mode %s batch %d: engine diverged from a fresh engine after the failed epoch", mode, i)
			}
		}
	}
}
