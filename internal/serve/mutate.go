package serve

// Online mutation: the serve/dyn bridge (DESIGN.md §15). A mutable
// engine owns a dyn.Mutable beside its derived dispatch state and
// advances through numbered epochs, one per applied mutation batch.
// The epoch fence is the two-lock discipline:
//
//	muMut  serializes mutators; held for the whole Mutate call.
//	mu     the read dispatch lock; Mutate takes it only for the final
//	       pointer swap.
//
// Everything expensive — batch application, repair, a staleness
// rebuild, re-normalizing Â, re-propagating the right-hand side —
// happens under muMut alone, while queries keep draining against the
// old epoch's operands under mu. The swap itself is a few pointer
// stores plus cache invalidation, so the read path's added latency is
// bounded by one brief critical section, never by the mutation work.
//
// Cache invalidation is exact, not heuristic: an edge flip {i, j}
// changes Â only in rows adjacent to (or equal to) an endpoint, and a
// response row p = (Â^Hops X)[p] can only change if some length-Hops
// path from p crosses such an entry — i.e. if p lies within the
// radius-Hops ball of the endpoints in the union of the old and new
// adjacencies. Rows outside the ball recompute to bit-identical
// float32 values (same columns, same operand rows, same accumulation
// order), so keeping them cached preserves the purity contract the
// hammer test asserts. When the permutation itself moved (repair
// swaps or a rebuild), every position changed meaning and both caches
// clear.
//
// A staleness rebuild leaves every compressed shard handle stale at
// once; re-splitting them lazily on the read path would stall queries
// under mu. Instead the engine enters a CSR-served degraded window:
// dispatches run the (cheaply built) CSR band path while one
// background warmer goroutine rebuilds all compressed handles
// off-lock and installs them under mu only if the epoch is still
// current — retrying against the new epoch otherwise.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/spmm"
	"repro/internal/venom"
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

	if out.Applied == 0 {
		// Nothing changed; just stamp the epoch.
		e.mu.Lock()
		e.epoch++
		epoch := e.epoch
		e.obs.Gauge("serve/epoch/seq").Set(float64(epoch))
		e.mu.Unlock()
		return MutateOutcome{Epoch: epoch, Batch: out}, nil
	}

	// Off-lock: derive the new epoch's operands while reads drain on
	// the old ones. The permutation and matrix are read through the
	// dyn.Mutable we exclusively own under muMut.
	permChanged := out.RepairSwaps > 0 || out.Rebuilt
	newPerm := e.dyn.Perm()
	rg := graph.FromBitMatrix(e.dyn.Matrix())
	a2 := csr.SymNormalized(rg)
	rhs2 := dense.NewMatrix(e.n, e.cfg.FeatureDim)
	for pos := 0; pos < e.n; pos++ {
		copy(rhs2.Row(pos), e.x0.Row(newPerm[pos]))
	}
	for hop := 1; hop < e.cfg.Hops; hop++ {
		rhs2 = spmm.CSR(e.mpool, nil, a2, rhs2)
	}

	var ballRows, touchedShards []int
	var inv2 []int
	if permChanged {
		inv2 = make([]int, e.n)
		for pos, orig := range newPerm {
			inv2[orig] = pos
		}
	} else {
		ballRows, touchedShards = e.invalidation(rg, out.Accepted)
	}

	// The fence: swap the derived state in under a brief mu hold.
	e.mu.Lock()
	e.a = a2
	e.rhs = rhs2
	if permChanged {
		e.perm = newPerm
		e.inv = inv2
		e.rowCache.clear()
		e.shards.clear()
		for s := range e.csrOnly {
			e.csrOnly[s] = false
		}
	} else {
		for _, r := range ballRows {
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
	if out.Rebuilt && e.cfg.Mode != ModeCSR {
		e.csrWindow = true
		if !e.warming {
			e.warming = true
			go e.warm()
		}
	}
	e.mu.Unlock()
	return MutateOutcome{Epoch: epoch, Batch: out}, nil
}

// invalidation computes, for a batch that did NOT move the
// permutation, the radius-Hops ball of row positions whose responses
// can change (row-cache invalidation) and the shards whose Â band
// rows changed (handle invalidation — the radius-1 subset). The BFS
// runs over the union adjacency: the new graph plus this batch's
// deleted edges, since a removed edge's old influence also radius-
// limits which stale values must go.
func (e *Engine) invalidation(rg *graph.Graph, accepted []dyn.Mutation) (ballRows, touchedShards []int) {
	extra := make(map[int][]int)
	var frontier []int
	dist := make(map[int]int)
	seed := func(p int) {
		if _, ok := dist[p]; !ok {
			dist[p] = 0
			frontier = append(frontier, p)
		}
	}
	for _, m := range accepted {
		i, j := e.inv[m.U], e.inv[m.V]
		seed(i)
		seed(j)
		if m.Op == dyn.OpDelete {
			extra[i] = append(extra[i], j)
			extra[j] = append(extra[j], i)
		}
	}
	shardSet := make(map[int]bool)
	for _, p := range frontier {
		shardSet[e.shardOf(p)] = true
	}
	for len(frontier) > 0 {
		var next []int
		for _, p := range frontier {
			d := dist[p]
			if d >= e.cfg.Hops {
				continue
			}
			visit := func(q int) {
				if _, ok := dist[q]; ok {
					return
				}
				dist[q] = d + 1
				next = append(next, q)
				if d+1 <= 1 {
					shardSet[e.shardOf(q)] = true
				}
			}
			for _, q := range rg.Neighbors(p) {
				visit(int(q))
			}
			for _, q := range extra[p] {
				visit(q)
			}
		}
		frontier = next
	}
	for p := range dist {
		ballRows = append(ballRows, p)
	}
	for s := range shardSet {
		touchedShards = append(touchedShards, s)
	}
	return ballRows, touchedShards
}

// warm is the background handle warmer behind the post-rebuild CSR
// window: build every shard's compressed handle off-lock from a
// consistent (epoch, Â) capture, then install the set atomically —
// only if the epoch is still current, else rebuild against the new
// one. Split failures mark their shard's sticky CSR fallback exactly
// as the lazy build path would.
func (e *Engine) warm() {
	for {
		e.mu.Lock()
		if !e.csrWindow {
			e.warming = false
			e.mu.Unlock()
			return
		}
		epoch, a := e.epoch, e.a
		e.mu.Unlock()

		handles := make([]*shardHandle, e.nShards)
		failed := make([]bool, e.nShards)
		for s := range handles {
			h := &shardHandle{sub: bandCSR(a, e.n, e.cfg.ShardRows, s)}
			comp, resid, err := venom.SplitToConform(h.sub, e.cfg.Pattern)
			if err == nil {
				err = comp.ValidateMeta()
			}
			if err != nil {
				failed[s] = true
			} else {
				h.comp, h.resid = comp, resid
			}
			handles[s] = h
		}

		e.mu.Lock()
		if e.epoch != epoch {
			e.mu.Unlock()
			continue
		}
		for s, h := range handles {
			if failed[s] {
				e.degradeShard(s)
			}
			e.shards.put(s, h)
		}
		e.csrWindow = false
		e.warming = false
		e.mu.Unlock()
		return
	}
}

// WaitWarm blocks until no degraded window or warmer is active — how
// deterministic probes (oracles, benches) exclude the window's
// timing-dependent CSR-vs-hybrid bit difference.
func (e *Engine) WaitWarm() {
	for {
		e.mu.Lock()
		busy := e.csrWindow || e.warming
		e.mu.Unlock()
		if !busy {
			return
		}
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
	}
}
