package serve

// Online mutation: the serve/dyn bridge (DESIGN.md §15). A mutable
// engine owns a dyn.Mutable beside its derived dispatch state and
// advances through numbered epochs, one per applied mutation batch.
// The epoch fence is the two-lock discipline:
//
//	muMut  serializes mutators; held for the whole Mutate call.
//	mu     the read dispatch lock; Mutate takes it only for the final
//	       swap.
//
// Everything expensive — batch application, repair, a staleness
// rebuild, rebuilding the dirty rows of Â and of the right-hand side —
// happens under muMut alone, while queries keep draining against the
// old epoch's operands under mu. The swap itself is a few pointer
// stores, a copy of the dirty right-hand-side rows and cache
// invalidation, so the read path's added latency is bounded by one
// brief critical section, never by the mutation work.
//
// An epoch costs what the batch touches, not n². An edge flip {i, j}
// changes degrees only at i and j, so Â changes only in the rows of
// N[i] ∪ N[j]; hop k of the right-hand side (Â^k X) then changes only
// inside the radius-k ball of the endpoints, and a response row
// (Â^Hops X)[p] only inside the radius-Hops ball. One BFS over the
// union of the old and new adjacencies yields all three sets. Â is
// rebuilt copy-on-write with just the radius-1 rows recomputed from
// the bit matrix: readers under mu keep using the old Â while the new
// one is built off-lock. The copy lands in the storage of the Â
// retired the epoch before, which no reader can still hold (shard
// handles copy their bands, and every other reader holds mu).
// Each hop recomputes just its ball rows through the CSR kernel's row
// body. Rows outside a ball recompute to bit-identical
// float32 values (same columns, same operand rows, same accumulation
// order), so keeping them — and their cached responses — preserves the
// purity contract the hammer test asserts and check.EpochEquivalence
// holds against a from-scratch engine. Outside ModeCSR a changed Â row
// also moves the bits of the rows dispatched as one unit with it (its
// V-row block in ModeHybrid, its shard in ModeAuto), so those cached
// rows go too.
//
// When the permutation itself moved (repair swaps or a rebuild), every
// position changed meaning: the same routine runs with every row dirty
// and both caches clear, so each shard handle is re-split on its first
// read, as dropped handles are after any epoch. So does the epoch
// after a failed one: Mutate marks the derived state stale before
// ApplyBatch changes the bit matrix and clears the mark only after the
// swap, so a batch that dies in between (an apply error, an injected
// crash at "serve/epoch", any panic a caller recovers) leaves the next
// batch rebuilding every row rather than patching state that no longer
// matches dyn.

import (
	"fmt"
	"sort"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/dyn"
	"repro/internal/shard"
	"repro/internal/spmm"
)

// MutateOutcome reports one applied mutation batch: the epoch it
// created and the dyn-level per-op outcome.
type MutateOutcome struct {
	Epoch uint64
	Batch dyn.BatchOutcome
}

// Mutable reports whether the engine accepts Mutate calls.
func (e *Engine) Mutable() bool { return e.dyn != nil }

// Epoch returns the current mutation epoch (0 = as constructed or
// restored with no batches applied since).
func (e *Engine) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// Fingerprint identifies the engine's response space — the fields a
// WAL must agree on for its records to mean the same graph changes.
// Mode is deliberately excluded (a log replays into any dispatch
// mode); the vertex count is included because vertex ids in mutation
// records are only meaningful against it.
func (e *Engine) Fingerprint() uint64 {
	s := fmt.Sprintf("sogre-serve/v1 n=%d V=%d N=%d M=%d hops=%d dim=%d classes=%d seed=%d shard_rows=%d",
		e.n, e.cfg.Pattern.V, e.cfg.Pattern.N, e.cfg.Pattern.M,
		e.cfg.Hops, e.cfg.FeatureDim, e.cfg.Classes, e.cfg.Seed, e.cfg.ShardRows)
	return shard.ChecksumBytes([]byte(s))
}

// Mutate applies one mutation batch and advances the epoch. Invalid
// mutations inside the batch are skipped and reported (dyn's batch
// semantics); the epoch advances even for a fully-rejected batch, so
// epochs stay in lockstep with WAL record sequence numbers. Safe for
// concurrent use with queries; concurrent Mutate calls serialize.
func (e *Engine) Mutate(ops []dyn.Mutation) (MutateOutcome, error) {
	if e.dyn == nil {
		return MutateOutcome{}, ErrNotMutable
	}
	e.muMut.Lock()
	defer e.muMut.Unlock()
	sp := e.obs.VolatileSpan("serve/epoch/build")
	defer sp.End()

	// Until the swap below completes, the derived state may lag dyn.
	rebuildAll := e.stale
	e.stale = true
	out, err := e.dyn.ApplyBatch(ops)
	if err != nil {
		return MutateOutcome{}, err
	}
	e.obs.Counter("serve/epoch/applied").Add(int64(out.Applied))
	e.obs.Counter("serve/epoch/rejected").Add(int64(len(out.Rejected)))
	e.obs.Counter("serve/epoch/repair_swaps").Add(int64(out.RepairSwaps))
	if out.Rebuilt {
		e.obs.Counter("serve/epoch/rebuilds").Inc()
	}
	e.inj.Exec("serve/epoch")

	if out.Applied == 0 && !rebuildAll {
		// Nothing changed; just stamp the epoch.
		e.mu.Lock()
		e.epoch++
		epoch := e.epoch
		e.obs.Gauge("serve/epoch/seq").Set(float64(epoch))
		e.mu.Unlock()
		e.stale = false
		return MutateOutcome{Epoch: epoch, Batch: out}, nil
	}

	// Off-lock: derive the new epoch's operands while reads drain on
	// the old ones. The permutation and matrix are read through the
	// dyn.Mutable we exclusively own under muMut.
	permChanged := rebuildAll || out.RepairSwaps > 0 || out.Rebuilt
	perm, inv := e.perm, e.inv
	var ball [][]int
	if permChanged {
		perm = e.dyn.Perm()
		inv = make([]int, e.n)
		all := make([]int, e.n)
		for pos, orig := range perm {
			inv[orig] = pos
			all[pos] = pos
		}
		ball = [][]int{all}
	} else {
		ball = e.ball(out.Accepted)
	}
	// within(r) lists the dirty rows at radius r: the positions at
	// union-adjacency distance <= r from the flipped endpoints.
	within := func(r int) []int {
		if r >= len(ball) {
			r = len(ball) - 1
		}
		var rows []int
		for _, level := range ball[:r+1] {
			rows = append(rows, level...)
		}
		return rows
	}
	rows1 := within(1)
	sort.Ints(rows1)
	a2 := csr.SymNormalizedRows(e.spare, e.a, e.dyn.Matrix(), rows1)

	// The right-hand side, hop by hop: hop k recomputes its radius-k
	// rows against the new Â and the already-patched hop k-1. Hops
	// below the last are mutator-owned and patched in place; the last
	// is e.rhs, which readers use under mu, so its rows are staged here
	// and copied in at the swap.
	prev := func(j int32) []float32 { return e.x0.Row(perm[j]) }
	for hop := 1; hop < e.cfg.Hops-1; hop++ {
		h := e.mid[hop-1]
		for _, p := range within(hop) {
			spmm.CSRRow(h.Row(p), a2, p, prev)
		}
		prev = func(j int32) []float32 { return h.Row(int(j)) }
	}
	dim := e.cfg.FeatureDim
	rhsRows := within(e.cfg.Hops - 1)
	staged := make([]float32, len(rhsRows)*dim)
	for k, p := range rhsRows {
		dst := staged[k*dim : (k+1)*dim]
		if e.cfg.Hops == 1 {
			copy(dst, prev(int32(p)))
		} else {
			spmm.CSRRow(dst, a2, p, prev)
		}
	}
	var evict, touchedShards []int
	if !permChanged {
		evict = within(e.cfg.Hops)
		// A changed Â row also moves the bits of the rows dispatched as
		// one unit with it: the V:N:M split picks columns per V-row
		// block, and the planner picks a kernel per shard.
		unit := 1
		switch e.cfg.Mode {
		case ModeHybrid:
			unit = e.cfg.Pattern.V
		case ModeAuto:
			unit = e.cfg.ShardRows
		}
		units := make(map[int]bool)
		shards := make(map[int]bool)
		for _, p := range rows1 {
			if s := e.shardOf(p); !shards[s] {
				shards[s] = true
				touchedShards = append(touchedShards, s)
			}
			if u := p / unit; unit > 1 && !units[u] {
				units[u] = true
				for r := u * unit; r < min((u+1)*unit, e.n); r++ {
					evict = append(evict, r)
				}
			}
		}
	}

	// The fence: swap the derived state in under a brief mu hold. The
	// retired Â becomes the next epoch's storage; shard handles hold
	// copies of their bands, and every other reader holds mu.
	e.mu.Lock()
	e.a, e.spare = a2, e.a
	if permChanged {
		// Every row was staged, in position order: adopt it whole.
		e.rhs = &dense.Matrix{Rows: e.n, Cols: dim, Data: staged}
		e.perm = perm
		e.inv = inv
		e.rowCache.clear()
		e.shards.clear()
		for s := range e.csrOnly {
			e.csrOnly[s] = false
		}
	} else {
		for k, p := range rhsRows {
			copy(e.rhs.Row(p), staged[k*dim:(k+1)*dim])
		}
		for _, r := range evict {
			e.rowCache.remove(r)
		}
		for _, s := range touchedShards {
			e.shards.remove(s)
			e.csrOnly[s] = false
		}
	}
	e.epoch++
	epoch := e.epoch
	e.obs.Gauge("serve/epoch/seq").Set(float64(epoch))
	e.mu.Unlock()
	e.stale = false
	return MutateOutcome{Epoch: epoch, Batch: out}, nil
}

// ball groups the row positions near a batch that did NOT move the
// permutation by BFS distance from the flipped endpoints: ball[d]
// holds the positions at distance exactly d, for d <= Hops. The
// distances that matter are over the union of the old and new
// adjacencies, and the old one alone gives them: every edge the batch
// inserted joins two sources at distance 0, so no path through one is
// shorter than a path from its far end. The old adjacency is the
// current Â's sparsity (less the diagonal), so the BFS walks sparse
// rows, not dense bit-matrix rows.
func (e *Engine) ball(accepted []dyn.Mutation) [][]int {
	seen := make([]bool, e.n)
	var level []int
	for _, mut := range accepted {
		for _, p := range [2]int{e.inv[mut.U], e.inv[mut.V]} {
			if !seen[p] {
				seen[p] = true
				level = append(level, p)
			}
		}
	}
	ball := [][]int{level}
	for d := 0; d < e.cfg.Hops && len(level) > 0; d++ {
		var next []int
		for _, p := range level {
			cols, _ := e.a.Row(p)
			for _, q := range cols {
				if !seen[q] {
					seen[q] = true
					next = append(next, int(q))
				}
			}
		}
		ball = append(ball, next)
		level = next
	}
	return ball
}

// WaitWarm returns immediately.
//
// Deprecated: Mutate starts no background work, so there is nothing
// to wait for. WaitWarm is kept only because the benchmark harness in
// perfbench calls it.
func (e *Engine) WaitWarm() {}
