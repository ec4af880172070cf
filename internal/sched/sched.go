// Package sched is the shared parallel execution engine the SpMM
// kernels run on: a work-stealing worker pool over cache-blocked,
// degree-aware row tiles. It is the CPU stand-in for the GPU's warp
// scheduler — the paper's speedups only materialize when row-window
// work is load-balanced across execution units (HC-SpMM, TC-GNN), and
// the same holds for the CPU kernels here.
//
// Determinism contract (DESIGN.md §7): every tile owns a disjoint
// rectangle of the output matrix, and each output element is
// accumulated by exactly one worker in the same operand order the
// serial kernel uses. Kernels built on this package therefore return
// results bit-identical to single-goroutine references at every worker
// count and tile size — no atomics on float32, no unordered reductions —
// which is what lets internal/check hold parallel kernels to an exact
// (tolerance-zero) differential oracle.
//
// Fault containment (DESIGN.md §10): a panic inside a tile function is
// recovered by the engine, sibling tiles are drained, and Run returns
// a typed *TileError — a panicking tile no longer kills the process,
// and the pool remains usable. Pools built WithInjector additionally
// fire the internal/resil fault injector's "tile" site once per
// executed index, which is how chaos tests exercise this path.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/resil"
)

// Pool is a sizing policy for the work-stealing execution engine: a
// worker count and an optional tile-cost target. The zero-cost way to
// think about it: a Pool is the CPU analog of a kernel launch
// configuration. Pools are immutable and safe for concurrent use; the
// per-run scheduling state lives on the calling goroutine's stack.
type Pool struct {
	workers int
	target  int64 // per-tile cost target; 0 = auto
	// obs, when set, charges execution metrics: deterministic run/item/
	// tile counts, plus volatile steal counts and per-worker shares
	// (obs package determinism contract). nil disables instrumentation
	// at the cost of one pointer test per Run.
	obs *obs.Registry
	// inj, when set, fires the fault injector's "tile" site once per
	// executed index (crash/transient events panic inside the tile and
	// surface as a TileError; stragglers delay the tile). nil disables
	// injection at the cost of one pointer test per tile — the same
	// contract as obs.
	inj *resil.Injector
}

// New returns a pool with the given worker count; workers <= 0 sizes
// the pool by runtime.GOMAXPROCS(0). New(1) is the serial pool: Run
// executes inline on the caller.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// NewWithTarget returns a pool that tiles work toward the given
// per-tile cost target instead of the automatic one — the knob the
// metamorphic tile-size-invariance checks turn.
func NewWithTarget(workers int, target int64) *Pool {
	p := New(workers)
	p.target = target
	return p
}

// WithTarget returns a pool identical to p with the given per-tile
// cost target (0 restores the automatic target) — how the execution
// planner applies an autotuned tile shape to an existing pool without
// disturbing its observability or fault wiring.
func (p *Pool) WithTarget(target int64) *Pool {
	q := *p
	if target < 0 {
		target = 0
	}
	q.target = target
	return &q
}

// Default returns the GOMAXPROCS-sized pool — what callers pass a
// kernel when they mean "the whole machine".
func Default() *Pool { return New(0) }

// Serial returns the one-worker pool: kernels handed it run every tile
// inline on the caller, so it is the serial form of every kernel.
func Serial() *Pool { return New(1) }

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// WithObs returns a pool identical to p that charges execution metrics
// to r. Kernels built on the pool (internal/spmm) read the registry
// back through Obs to record their dispatch counts, so wiring one pool
// instruments the whole execution stack. A nil r returns an
// uninstrumented pool.
func (p *Pool) WithObs(r *obs.Registry) *Pool {
	q := *p
	q.obs = r
	return &q
}

// Obs returns the registry this pool charges; nil when instrumentation
// is disabled. Safe to call on the result of any constructor.
func (p *Pool) Obs() *obs.Registry { return p.obs }

// WithInjector returns a pool identical to p whose tile executions
// fire the fault injector's "tile" site. A nil in returns an
// uninjected pool.
func (p *Pool) WithInjector(in *resil.Injector) *Pool {
	q := *p
	q.inj = in
	return &q
}

// Injector returns the fault injector this pool fires; nil when
// injection is disabled.
func (p *Pool) Injector() *resil.Injector { return p.inj }

// Options returns the tile options this pool applies to a job whose
// total row cost is totalCost: the pool's explicit target if set,
// otherwise enough tiles for stealing to balance load (a few tiles per
// worker) without fragmenting small jobs.
func (p *Pool) Options(totalCost int64) TileOptions {
	if p.target > 0 {
		return TileOptions{TargetCost: p.target}
	}
	target := totalCost / int64(p.workers*4)
	if target < 64 {
		target = 64
	}
	return TileOptions{TargetCost: target}
}

// span is one worker's contiguous chunk of the tile index space, with
// head and tail packed into a single atomic word so owner pops and
// half-steals linearize on one CAS. Indices only move inward, so there
// is no ABA hazard. The pad keeps hot spans on distinct cache lines.
type span struct {
	hl atomic.Uint64 // head<<32 | tail, both indices into [0, n)
	_  [56]byte
}

func pack(h, t uint32) uint64 { return uint64(h)<<32 | uint64(t) }

// pop takes the next index from the front of the span (owner side).
func (s *span) pop() (int, bool) {
	for {
		v := s.hl.Load()
		h, t := uint32(v>>32), uint32(v)
		if h >= t {
			return 0, false
		}
		if s.hl.CompareAndSwap(v, pack(h+1, t)) {
			return int(h), true
		}
	}
}

// stealHalf removes the back half of the span (thief side) and returns
// the stolen range.
func (s *span) stealHalf() (lo, hi int, ok bool) {
	for {
		v := s.hl.Load()
		h, t := uint32(v>>32), uint32(v)
		if h >= t {
			return 0, 0, false
		}
		k := (t - h + 1) / 2
		if s.hl.CompareAndSwap(v, pack(h, t-k)) {
			return int(t - k), int(t), true
		}
	}
}

// TileError is a panic captured inside one tile execution: the tile
// index, the recovered panic value, and the stack at the panic site.
// Run converts tile panics into a TileError instead of letting them
// kill the process — a panicking goroutine inside the pool would
// otherwise be unrecoverable by any caller — and the pool remains
// fully usable for subsequent runs.
type TileError struct {
	Tile      int
	Recovered any
	Stack     []byte
}

func (e *TileError) Error() string {
	return fmt.Sprintf("sched: tile %d panicked: %v", e.Tile, e.Recovered)
}

// Unwrap exposes a recovered error value (e.g. a *resil.CrashError) to
// errors.Is/As.
func (e *TileError) Unwrap() error {
	if err, ok := e.Recovered.(error); ok {
		return err
	}
	return nil
}

// Run executes fn(i) exactly once for every i in [0, n), distributed
// across the pool's workers by work stealing: each worker starts on a
// contiguous chunk of the index space and, when drained, steals the
// back half of another worker's remaining chunk. fn must be safe to
// call from multiple goroutines for distinct i; no two calls share an
// index, and Run returns only after every call has finished.
//
// Fault containment: a panic inside fn is recovered, the remaining
// sibling tiles are drained normally, and Run returns a *TileError
// describing the panicking tile (the lowest-indexed one when several
// panic, so the returned error is deterministic). The pool itself
// holds no per-run state and stays usable after a tile panic. Run
// returns nil when every call completed.
func (p *Pool) Run(n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	// Deterministic accounting: invocation and item counts are pure
	// functions of the workload. The steal/share metrics below are
	// scheduling-dependent and go to the volatile section.
	var steals, stolenItems *obs.Counter
	if p.obs != nil {
		p.obs.Counter("sched/runs").Inc()
		p.obs.Counter("sched/items").Add(int64(n))
		steals = p.obs.Volatile("sched/steals")
		stolenItems = p.obs.Volatile("sched/steal_items")
	}
	// exec runs one tile with fault containment: an injector hit first
	// (crash/transient events panic, stragglers sleep), then fn, with
	// any panic captured as the run's TileError. One deferred recover
	// per tile is noise next to a tile's >= target-cost work, keeping
	// the fault-free hot path at nil-check cost.
	var errMu sync.Mutex
	var tileErr *TileError
	exec := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				stack := debug.Stack()
				errMu.Lock()
				if tileErr == nil || i < tileErr.Tile {
					tileErr = &TileError{Tile: i, Recovered: r, Stack: stack}
				}
				errMu.Unlock()
				if p.obs != nil {
					p.obs.Counter("sched/tile_panics").Inc()
				}
			}
		}()
		if p.inj != nil {
			p.inj.Exec("tile")
		}
		fn(i)
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			exec(i)
		}
		if tileErr != nil {
			return tileErr
		}
		return nil
	}
	spans := make([]span, w)
	chunk := (n + w - 1) / w
	for i := range spans {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo > hi {
			lo = hi
		}
		spans[i].hl.Store(pack(uint32(lo), uint32(hi)))
	}
	var wg sync.WaitGroup
	for id := 0; id < w; id++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			// executed tracks this worker's share of the index space —
			// published as a volatile per-worker occupancy metric, since
			// the split depends on steal timing.
			executed := 0
			defer func() {
				if p.obs != nil {
					p.obs.Volatile("sched/worker/" + strconv.Itoa(self) + "/executed").Add(int64(executed))
				}
			}()
			for {
				if i, ok := spans[self].pop(); ok {
					exec(i)
					executed++
					continue
				}
				// Own span drained: scan for a victim. Spans never
				// grow, so a full empty scan means global completion.
				stole := false
				for d := 1; d < w; d++ {
					victim := (self + d) % w
					if lo, hi, ok := spans[victim].stealHalf(); ok {
						steals.Inc()
						stolenItems.Add(int64(hi - lo))
						for i := lo; i < hi; i++ {
							exec(i)
							executed++
						}
						stole = true
						break
					}
				}
				if !stole {
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if tileErr != nil {
		return tileErr
	}
	return nil
}

// Chunks splits [0, n) into at most k contiguous, non-empty ranges of
// near-equal length, in order. Used by ordered reductions: compute one
// partial per chunk in parallel, then fold the partials in chunk order
// so the reduction is deterministic.
func Chunks(n, k int) [][2]int {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([][2]int, 0, k)
	size := (n + k - 1) / k
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// ReduceInt computes the sum of fn over a partition of [0, n) with the
// partials folded in chunk order — an ordered parallel reduction. For
// integer sums the order is immaterial to the value, but keeping the
// fold ordered means the same helper is safe for any associative-only
// accumulator. A panic inside fn is re-raised on the calling goroutine
// (as the *TileError Run captured) rather than killing the process.
func (p *Pool) ReduceInt(n int, fn func(lo, hi int) int) int {
	chunks := Chunks(n, p.workers)
	if len(chunks) <= 1 {
		if n <= 0 {
			return 0
		}
		return fn(0, n)
	}
	partials := make([]int, len(chunks))
	err := p.Run(len(chunks), func(ci int) {
		partials[ci] = fn(chunks[ci][0], chunks[ci][1])
	})
	if err != nil {
		panic(err)
	}
	total := 0
	for _, v := range partials {
		total += v
	}
	return total
}
