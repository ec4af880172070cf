package check

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/resil"
	"repro/internal/sched"
	"repro/internal/serve"
)

// This file is the service-level oracle for the online inference
// engine (internal/serve). Its claims, at the exact strengths the
// serving layer's determinism contract makes:
//
//   - For any interleaving of client streams, batched-coalesced
//     responses are bit-identical to one-request-at-a-time serial
//     evaluation through an identically configured engine, at every
//     worker count. Coalescing, caching, eviction churn and admission
//     timing may change WHICH dispatches run, never their bits.
//   - For the fixed kernel modes (csr, hybrid), responses are
//     additionally bit-identical ACROSS worker counts (DESIGN.md §7).
//     ModeAuto is excluded from the cross-worker claim: the planner
//     may legitimately choose different kernel classes at different
//     pool sizes.
//   - Under a seeded fault plan, the degraded SPTC→CSR paths change
//     float32 summation order, so faulted responses are held to
//     SampledTolerance against the fault-free reference (mirroring
//     SampledEngineAgreement) — and replaying the identical plan on a
//     fresh engine reproduces the faulted responses bit-identically.

// serveResponses replays every client stream one request at a time,
// in client-major order, directly through the engine — the serial
// reference.
func serveResponses(e *serve.Engine, script [][]*serve.Request) [][]*serve.Response {
	out := make([][]*serve.Response, len(script))
	for c, reqs := range script {
		out[c] = make([]*serve.Response, len(reqs))
		for i, r := range reqs {
			out[c][i] = e.ServeBatch([]*serve.Request{r}, false)[0]
		}
	}
	return out
}

// serveConcurrent replays the script through a coalescing server with
// one goroutine per client stream (closed-loop, in-order per client,
// arbitrary interleaving across clients).
func serveConcurrent(e *serve.Engine, script [][]*serve.Request, scfg serve.ServerConfig) ([][]*serve.Response, error) {
	srv, err := serve.NewServer(e, scfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	out := make([][]*serve.Response, len(script))
	errs := make([]error, len(script))
	var wg sync.WaitGroup
	for c, reqs := range script {
		out[c] = make([]*serve.Response, len(reqs))
		wg.Add(1)
		go func(c int, reqs []*serve.Request) {
			defer wg.Done()
			for i, r := range reqs {
				resp, err := srv.Submit(r)
				if err != nil {
					errs[c] = fmt.Errorf("client %d request %d: %w", c, i, err)
					return
				}
				out[c][i] = resp
			}
		}(c, reqs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bitwiseResponses asserts two response sets are bit-identical.
func bitwiseResponses(label string, got, ref [][]*serve.Response) error {
	for c := range ref {
		for i := range ref[c] {
			g, r := got[c][i], ref[c][i]
			if g.Op != r.Op || len(g.Rows) != len(r.Rows) || len(g.Classes) != len(r.Classes) {
				return fmt.Errorf("check: serve %s: client %d request %d shape mismatch", label, c, i)
			}
			for j := range r.Classes {
				if g.Classes[j] != r.Classes[j] {
					return fmt.Errorf("check: serve %s: client %d request %d node %d class %d != %d",
						label, c, i, j, g.Classes[j], r.Classes[j])
				}
			}
			for j := range r.Rows {
				for k := range r.Rows[j] {
					if math.Float32bits(g.Rows[j][k]) != math.Float32bits(r.Rows[j][k]) {
						return fmt.Errorf("check: serve %s: client %d request %d row %d col %d: %x != %x (determinism-contract violation)",
							label, c, i, j, k, math.Float32bits(g.Rows[j][k]), math.Float32bits(r.Rows[j][k]))
					}
				}
			}
		}
	}
	return nil
}

// toleranceResponses holds two embed-only response sets to an
// absolute element-wise bound.
func toleranceResponses(label string, got, ref [][]*serve.Response, tol float64) error {
	for c := range ref {
		for i := range ref[c] {
			g, r := got[c][i], ref[c][i]
			for j := range r.Rows {
				for k := range r.Rows[j] {
					d := math.Abs(float64(g.Rows[j][k] - r.Rows[j][k]))
					if d > tol {
						return fmt.Errorf("check: serve %s: client %d request %d row %d col %d diverged by %v (> %v)",
							label, c, i, j, k, d, tol)
					}
				}
			}
		}
	}
	return nil
}

// ServeEquivalence is the batching/caching bit-purity oracle. For
// every worker count it builds fresh engines from (g, ecfg) — one
// replayed serially, one driven concurrently through the coalescing
// server — and asserts the interleaved, batched responses are
// bit-identical to the serial ones; for fixed modes it also asserts
// bit-identity across worker counts. When faultPlan is non-empty it
// additionally runs the seeded plan (re-parsed per run, so hit
// counters start virgin) on an embed-only variant of the script:
// degraded-path responses are tolerance-bounded against fault-free,
// and a replay of the identical plan is bit-identical to the first
// faulted run.
func ServeEquivalence(g *graph.Graph, ecfg serve.EngineConfig, script serve.ScriptConfig, faultPlan string, workers []int) error {
	if workers == nil {
		workers = WorkerCounts()
	}
	reqs, err := serve.GenerateScript(script)
	if err != nil {
		return fmt.Errorf("check: serve script: %w", err)
	}
	mk := func(w int, inj *resil.Injector) (*serve.Engine, error) {
		c := ecfg
		c.Pool = sched.New(w)
		c.Inj = inj
		return serve.NewEngine(g, c)
	}
	eng, err := mk(1, nil)
	if err != nil {
		return fmt.Errorf("check: serve reference engine: %w", err)
	}
	// Reuse the reordering across every engine build: the permutation
	// is itself bit-deterministic across worker counts (DESIGN.md §8),
	// so this is a speedup, not a weakening.
	ecfg.Perm = eng.Perm()
	ref := serveResponses(eng, reqs)

	for _, w := range workers {
		serial, err := mk(w, nil)
		if err != nil {
			return fmt.Errorf("check: serve workers=%d: %w", w, err)
		}
		refW := serveResponses(serial, reqs)
		if ecfg.Mode != serve.ModeAuto {
			if err := bitwiseResponses(fmt.Sprintf("workers=%d vs serial", w), refW, ref); err != nil {
				return err
			}
		}
		batched, err := mk(w, nil)
		if err != nil {
			return fmt.Errorf("check: serve workers=%d: %w", w, err)
		}
		got, err := serveConcurrent(batched, reqs, serve.ServerConfig{})
		if err != nil {
			return fmt.Errorf("check: serve workers=%d concurrent: %w", w, err)
		}
		if err := bitwiseResponses(fmt.Sprintf("workers=%d batched", w), got, refW); err != nil {
			return err
		}
	}

	if faultPlan == "" {
		return nil
	}
	embedScript := script
	embedScript.ClassifyEvery = 0 // argmax can legitimately flip on a degraded near-tie
	embedReqs, err := serve.GenerateScript(embedScript)
	if err != nil {
		return fmt.Errorf("check: serve fault script: %w", err)
	}
	cleanEng, err := mk(1, nil)
	if err != nil {
		return err
	}
	clean := serveResponses(cleanEng, embedReqs)
	faulted := func() ([][]*serve.Response, error) {
		p, err := resil.ParsePlan(faultPlan)
		if err != nil {
			return nil, fmt.Errorf("check: serve fault plan %q: %w", faultPlan, err)
		}
		e, err := mk(1, resil.NewInjector(p, nil))
		if err != nil {
			return nil, err
		}
		return serveResponses(e, embedReqs), nil
	}
	a, err := faulted()
	if err != nil {
		return err
	}
	if err := toleranceResponses("faulted vs clean", a, clean, SampledTolerance); err != nil {
		return err
	}
	b, err := faulted()
	if err != nil {
		return err
	}
	return bitwiseResponses("fault replay", b, a)
}

// EpochCoverage counts what a mutation stream exercised in
// EpochEquivalence, so a caller can assert its stream reached every
// epoch path: a patched epoch, a delete, an insert cancelled by a
// delete in the same batch, repair swaps and a staleness rebuild.
type EpochCoverage struct {
	Patched     int // batches that changed edges without moving the permutation
	Deletes     int // accepted deletes
	Cancelled   int // accepted deletes of an edge inserted earlier in the same batch
	RepairSwaps int
	Rebuilds    int
}

// EpochEquivalence is the differential oracle for dirty-row epoch
// patching (DESIGN.md §15). For each worker count a mutable engine
// built from (g, ecfg) applies the batches one by one. After every
// batch it answers a probe of every node, and the answers must match,
// bitwise and at the same epoch, those of a from-scratch engine built
// from its snapshot (Snapshot → RestoreEngine). The probe before each
// batch warms the row cache, which is widened to hold every row, so a
// row the patch failed to recompute or evict shows as a stale answer.
// The probe follows each batch with no wait: an epoch's answers are
// fixed the moment Mutate returns. Coverage is counted on the first
// worker count's run. dir holds the snapshot scratch files.
func EpochEquivalence(g *graph.Graph, ecfg serve.EngineConfig, batches [][]dyn.Mutation, dir string, workers []int) (EpochCoverage, error) {
	if workers == nil {
		workers = WorkerCounts()
	}
	n := g.N()
	ecfg.Mutable = true
	if ecfg.CacheRows < n {
		ecfg.CacheRows = n
	}
	probe := probeScript(n)
	var cov EpochCoverage
	for wi, w := range workers {
		c := ecfg
		c.Workers = w
		eng, err := serve.NewEngine(g, c)
		if err != nil {
			return cov, fmt.Errorf("check: epoch workers=%d: %w", w, err)
		}
		// Reuse the reordering across worker counts (bit-deterministic,
		// DESIGN.md §8) — a speedup, not a weakening.
		ecfg.Perm = eng.Perm()
		serveResponses(eng, probe)
		path := filepath.Join(dir, fmt.Sprintf("epoch-w%d.snapshot", w))
		for i, b := range batches {
			out, err := eng.Mutate(b)
			if err != nil {
				return cov, fmt.Errorf("check: epoch workers=%d batch %d: %w", w, i, err)
			}
			if wi == 0 {
				cov.count(out.Batch)
			}
			got := serveResponses(eng, probe)
			if err := eng.Snapshot(path); err != nil {
				return cov, fmt.Errorf("check: epoch workers=%d batch %d snapshot: %w", w, i, err)
			}
			rc := c
			rc.Perm, rc.Mutable = nil, false
			fresh, err := serve.RestoreEngine(path, rc)
			if err != nil {
				return cov, fmt.Errorf("check: epoch workers=%d batch %d restore: %w", w, i, err)
			}
			if fresh.Epoch() != eng.Epoch() {
				return cov, fmt.Errorf("check: epoch workers=%d batch %d: restored epoch %d, want %d", w, i, fresh.Epoch(), eng.Epoch())
			}
			label := fmt.Sprintf("epoch workers=%d batch %d", w, i)
			if err := bitwiseResponses(label, got, serveResponses(fresh, probe)); err != nil {
				return cov, err
			}
		}
	}
	return cov, nil
}

// count adds one batch outcome to the coverage tally.
func (c *EpochCoverage) count(out dyn.BatchOutcome) {
	c.RepairSwaps += out.RepairSwaps
	if out.Rebuilt {
		c.Rebuilds++
	}
	if out.Applied > 0 && out.RepairSwaps == 0 && !out.Rebuilt {
		c.Patched++
	}
	inserted := make(map[[2]int]bool)
	for _, m := range out.Accepted {
		key := [2]int{min(m.U, m.V), max(m.U, m.V)}
		if m.Op == dyn.OpInsert {
			inserted[key] = true
			continue
		}
		c.Deletes++
		if inserted[key] {
			c.Cancelled++
		}
	}
}
