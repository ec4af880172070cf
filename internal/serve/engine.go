package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/resil"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/venom"
)

// Mode selects how shard dispatches route to kernels.
type Mode string

const (
	// ModeCSR dispatches every shard through the parallel CSR kernel
	// (the cuSPARSE-baseline path; no compression built).
	ModeCSR = Mode("csr")
	// ModeHybrid dispatches through the V:N:M/SPTC hybrid kernel —
	// the paper's path, and the default.
	ModeHybrid = Mode("hybrid")
	// ModeAuto routes each shard through the calibrated execution
	// planner (internal/plan); requires EngineConfig.Calib. Planner
	// choices may differ across worker counts, so cross-worker bitwise
	// equality is only guaranteed for the fixed modes.
	ModeAuto = Mode("auto")
)

// EngineConfig sizes the serving engine. The zero value of most
// fields selects documented defaults; Seed pins every random draw.
type EngineConfig struct {
	// Pattern is the target V:N:M sparsity pattern (zero = 4:2:8, the
	// repo default).
	Pattern pattern.VNM
	// Hops is the aggregation depth: a query returns rows of
	// Â^Hops · X. The last hop runs per query (through the shard
	// dispatch path); the first Hops-1 are folded into the shared
	// right-hand side at startup. Zero = 2.
	Hops int
	// FeatureDim is the dense feature width (zero = 32).
	FeatureDim int
	// Classes sizes the linear classification head (zero = 8).
	Classes int
	// Seed drives feature/head initialization and must match across
	// engines whose responses are compared.
	Seed int64
	// ShardRows is the row-band height shards are cut at, rounded up
	// to a multiple of Pattern.V (zero = 256).
	ShardRows int
	// CacheRows bounds the per-node aggregation-row LRU; 0 disables
	// the row cache (a valid configuration — every query recomputes),
	// negative is ErrConfig.
	CacheRows int
	// ShardCap bounds the compressed shard-handle LRU; 0 means all
	// shards stay resident, negative is ErrConfig. An evicted handle
	// is rebuilt bit-identically on next touch.
	ShardCap int
	// Mode routes shard dispatches (zero = ModeHybrid).
	Mode Mode
	// Calib is the planner calibration table; required for ModeAuto.
	Calib *plan.Calibration

	// Workers sizes the kernel pool (0 = GOMAXPROCS); Pool overrides
	// it with a caller-shared engine. The pool is deliberately left
	// obs-uninstrumented: per-dispatch kernel counters are
	// scheduling-dependent in the serving layer (dispatch counts vary
	// with batching and cache state) and would poison the canonical
	// snapshot's deterministic section.
	Workers int
	Pool    *sched.Pool
	// Obs charges serving metrics (see DESIGN.md §13 for the
	// deterministic/volatile split). Nil disables instrumentation.
	Obs *obs.Registry
	// Inj fires fault sites ("serve/shard" at shard builds,
	// "serve/batch" at coalesced dispatches, "serve/epoch" between a
	// mutation batch's apply and its epoch swap). Nil disables
	// injection.
	Inj *resil.Injector

	// Mutable wraps the reordered matrix in a dyn.Mutable so the
	// engine accepts online edge mutations through Mutate (DESIGN.md
	// §15). Costs one extra matrix clone plus the n×FeatureDim seeded
	// feature matrix (and, for Hops > 2, the Hops-2 intermediate hops)
	// kept resident for epoch patches.
	Mutable bool
	// StalenessBudget is the dyn rebuild trigger for mutable engines
	// (zero = dyn.DefaultStalenessBudget); ignored when !Mutable.
	StalenessBudget float64

	// Perm, when set, is a precomputed reordering permutation (new
	// position i holds original vertex Perm[i]) and skips the
	// reordering run — how the bench suite amortizes one reorder
	// across many engine constructions.
	Perm []int
	// Large partitions the reordering through core.ReorderLarge with
	// partition bound MaxN (0 = ReorderLarge's default) instead of the
	// direct dense-bitmatrix engine.
	Large bool
	MaxN  int
	// Reorder configures the reordering run (ignored when Perm set).
	Reorder core.Options
}

// withDefaults resolves the documented zero-value defaults.
func (c EngineConfig) withDefaults() (EngineConfig, error) {
	if c.Pattern == (pattern.VNM{}) {
		c.Pattern = pattern.New(4, 2, 8)
	}
	if err := c.Pattern.Validate(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if c.Hops == 0 {
		c.Hops = 2
	}
	if c.FeatureDim == 0 {
		c.FeatureDim = 32
	}
	if c.Classes == 0 {
		c.Classes = 8
	}
	if c.ShardRows == 0 {
		c.ShardRows = 256
	}
	if v := c.Pattern.V; c.ShardRows%v != 0 {
		c.ShardRows += v - c.ShardRows%v
	}
	if c.Mode == "" {
		c.Mode = ModeHybrid
	}
	switch {
	case c.Hops < 1:
		return c, fmt.Errorf("%w: hops %d < 1", ErrConfig, c.Hops)
	case c.FeatureDim < 1 || c.Classes < 1:
		return c, fmt.Errorf("%w: feature dim %d / classes %d", ErrConfig, c.FeatureDim, c.Classes)
	case c.ShardRows < 1:
		return c, fmt.Errorf("%w: shard rows %d", ErrConfig, c.ShardRows)
	case c.CacheRows < 0:
		return c, fmt.Errorf("%w: negative cache rows %d", ErrConfig, c.CacheRows)
	case c.ShardCap < 0:
		return c, fmt.Errorf("%w: negative shard cap %d", ErrConfig, c.ShardCap)
	case c.Mode != ModeCSR && c.Mode != ModeHybrid && c.Mode != ModeAuto:
		return c, fmt.Errorf("%w: unknown mode %q", ErrConfig, c.Mode)
	case c.Mode == ModeAuto && c.Calib == nil:
		return c, fmt.Errorf("%w: ModeAuto requires a calibration table", ErrConfig)
	}
	return c, nil
}

// shardHandle is one row band's built dispatch state: the band
// embedded as a square n-by-n CSR (rows outside the band empty, so a
// dispatch computes the whole band against the shared right-hand
// side), plus the V:N:M split the hybrid path consumes.
type shardHandle struct {
	sub   *csr.Matrix
	comp  *venom.Matrix
	resid *csr.Matrix
	// planned caches the ModeAuto decision (a pure function of the
	// band's structure and the table, so caching cannot change bits).
	planned bool
	dec     plan.Decision
}

// Engine answers node-set queries against a reordered, compressed
// graph loaded once at construction. All methods are safe for
// concurrent use; one mutex serializes dispatches (the kernels
// parallelize internally across the pool).
type Engine struct {
	mu  sync.Mutex
	cfg EngineConfig
	n   int
	src *graph.Graph // the graph the engine was built from (snapshots)

	a    *csr.Matrix   // Â of the reordered graph
	rhs  *dense.Matrix // Â^(Hops-1) · X, the shared dense operand
	head *dense.Matrix // FeatureDim x Classes linear head
	perm []int         // new position -> original vertex
	inv  []int         // original vertex -> new position

	shards     *lru[*shardHandle]
	rowCache   *lru[[]float32]
	csrOnly    []bool // rung-1 sticky SPTC->CSR fallback, per shard
	planner    *plan.Planner
	pool       *sched.Pool
	obs        *obs.Registry
	inj        *resil.Injector
	y, scratch *dense.Matrix // dispatch output + hybrid residual scratch
	arena      plan.Arena

	// Mutation state (nil/zero for read-only engines). muMut serializes
	// mutators and is always acquired BEFORE mu (the epoch fence:
	// derived state builds off-lock while reads drain on the old epoch,
	// then swaps in under a brief mu hold). dyn is owned by the mutator
	// — readers never touch it.
	muMut sync.Mutex
	dyn   *dyn.Mutable
	epoch uint64
	x0    *dense.Matrix   // seeded features in ORIGINAL numbering
	mid   []*dense.Matrix // Â^k · X for k = 1..Hops-2, patched per epoch
	spare *csr.Matrix     // a retired Â no reader can still hold; the next epoch's Â reuses its storage
	stale bool            // a failed epoch left Â/rhs behind dyn: rebuild every row
}

// NewEngine loads graph g: reorder (or adopt cfg.Perm), apply the
// permutation, symmetric-normalize, fold Hops-1 propagation steps
// into the shared right-hand side, and cut row-band shards. The
// construction is deterministic: two engines built from the same
// (graph, config) answer every query with identical bits.
func NewEngine(g *graph.Graph, cfg EngineConfig) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("%w: empty graph", ErrConfig)
	}
	perm := cfg.Perm
	switch {
	case perm != nil:
		if len(perm) != n {
			return nil, fmt.Errorf("%w: perm length %d != n %d", ErrConfig, len(perm), n)
		}
	case cfg.Large:
		lr, err := core.ReorderLarge(g, core.LargeOptions{
			MaxN: cfg.MaxN, Pattern: cfg.Pattern, Reorder: cfg.Reorder,
			Pool: cfg.Pool, Workers: cfg.Workers, Obs: cfg.Obs,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: reorder: %w", err)
		}
		perm = lr.Perm
	default:
		opt := cfg.Reorder
		if opt.Pool == nil && cfg.Pool != nil {
			opt.Pool = cfg.Pool
		}
		if opt.Obs == nil {
			opt.Obs = cfg.Obs
		}
		res, err := core.Reorder(g.ToBitMatrix(), cfg.Pattern, opt)
		if err != nil {
			return nil, fmt.Errorf("serve: reorder: %w", err)
		}
		perm = res.Perm
	}
	rg, err := g.ApplyPermutation(perm)
	if err != nil {
		return nil, fmt.Errorf("serve: apply permutation: %w", err)
	}
	inv := make([]int, n)
	for pos, orig := range perm {
		if orig < 0 || orig >= n {
			return nil, fmt.Errorf("%w: perm entry %d out of range", ErrConfig, orig)
		}
		inv[orig] = pos
	}

	pool := cfg.Pool
	if pool == nil {
		pool = sched.New(cfg.Workers)
	}
	a := csr.SymNormalized(rg)

	// Features attach to original vertex ids (row i of the seeded
	// matrix belongs to vertex i), then follow the renumbering — the
	// reordering is an implementation detail of the engine, invisible
	// in response semantics.
	x := dense.NewMatrix(n, cfg.FeatureDim)
	x.Randomize(1, cfg.Seed)
	rhs := dense.NewMatrix(n, cfg.FeatureDim)
	for pos := 0; pos < n; pos++ {
		copy(rhs.Row(pos), x.Row(perm[pos]))
	}
	var mid []*dense.Matrix // the intermediate hops a mutable engine patches
	for hop := 1; hop < cfg.Hops; hop++ {
		if hop > 1 && cfg.Mutable {
			mid = append(mid, rhs)
		}
		rhs = spmm.CSR(pool, nil, a, rhs)
	}
	head := dense.NewMatrix(cfg.FeatureDim, cfg.Classes)
	head.Randomize(1, cfg.Seed+1)

	nShards := (n + cfg.ShardRows - 1) / cfg.ShardRows
	shardCap := cfg.ShardCap
	if shardCap == 0 {
		shardCap = nShards
	}
	e := &Engine{
		cfg: cfg, n: n, src: g, a: a, rhs: rhs, head: head,
		perm: append([]int(nil), perm...), inv: inv,
		csrOnly:  make([]bool, nShards),
		pool:     pool,
		obs:      cfg.Obs,
		inj:      cfg.Inj,
		y:        dense.NewMatrix(n, cfg.FeatureDim),
		scratch:  dense.NewMatrix(n, cfg.FeatureDim),
		rowCache: newLRU[[]float32](cfg.CacheRows),
	}
	e.shards = newLRU[*shardHandle](shardCap)
	e.shards.onEvict = func(int, *shardHandle) {
		e.obs.Volatile("serve/shard/evict").Inc()
	}
	e.rowCache.onEvict = func(int, []float32) {
		e.obs.Volatile("serve/cache/evict").Inc()
	}
	if cfg.Mutable {
		budget := cfg.StalenessBudget
		if budget == 0 {
			budget = dyn.DefaultStalenessBudget
		}
		d, err := dyn.New(
			&core.Result{Pattern: cfg.Pattern, Perm: perm, Matrix: rg.ToBitMatrix()},
			dyn.Options{
				StalenessBudget: budget,
				H:               cfg.FeatureDim,
				Workers:         cfg.Workers,
				Reorder:         cfg.Reorder,
				Obs:             cfg.Obs,
			})
		if err != nil {
			return nil, fmt.Errorf("%w: mutable: %v", ErrConfig, err)
		}
		e.dyn = d
		e.x0 = x
		e.mid = mid
	}
	if cfg.Mode == ModeAuto {
		e.planner = &plan.Planner{Calib: cfg.Calib}
	}
	e.registerMetrics()
	return e, nil
}

// registerMetrics touches every serve metric once so the snapshot's
// key set is a function of the configuration, not of which code
// paths traffic happened to exercise — canonical byte-comparability
// requires stable keys, and dashboards want the full inventory from
// the first scrape.
func (e *Engine) registerMetrics() {
	if e.obs == nil {
		return
	}
	for _, name := range []string{
		"serve/requests", "serve/rows",
		"serve/errors/invalid", "serve/errors/oversized", "serve/errors/parse",
		"serve/epoch/applied", "serve/epoch/rejected",
		"serve/epoch/repair_swaps", "serve/epoch/rebuilds",
		"serve/wal/records", "serve/wal/bytes",
	} {
		e.obs.Counter(name)
	}
	// serve/epoch/seq is the current mutation epoch — deterministic for
	// a fixed applied-batch sequence (and the value the recovery drill
	// reads off /statz to find how many batches survived a crash).
	e.obs.Gauge("serve/epoch/seq")
	for _, name := range []string{
		"serve/cache/hit", "serve/cache/miss", "serve/cache/fill", "serve/cache/evict",
		"serve/shard/build", "serve/shard/evict",
		"serve/degraded/shards", "serve/degraded/batches",
		"serve/dispatch/csr", "serve/dispatch/hybrid", "serve/dispatch/planned",
		"serve/rejected", "serve/batch_faults",
		"serve/mutate/rejected", "serve/wal/commits",
	} {
		e.obs.Volatile(name)
	}
	e.obs.VolatileHist("serve/batch_rows")
	e.obs.VolatileHist("serve/batch_requests")
	e.obs.VolatileHist("serve/queue_depth")
	e.obs.VolatileHist("serve/mutate/queue_depth")
	e.obs.VolatileSpan("serve/batch")
	e.obs.VolatileSpan("serve/dispatch")
	e.obs.VolatileSpan("serve/epoch/build")
}

// N returns the graph size.
func (e *Engine) N() int { return e.n }

// Mode returns the resolved dispatch mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// Injector returns the engine's fault injector (nil when disabled).
func (e *Engine) Injector() *resil.Injector { return e.inj }

// Obs returns the engine's metrics registry (nil when disabled).
func (e *Engine) Obs() *obs.Registry { return e.obs }

// Perm returns a copy of the reordering permutation, so a second
// engine over the same graph can skip the reordering run.
func (e *Engine) Perm() []int { return append([]int(nil), e.perm...) }

// ValidateRequest applies the full request invariants, including the
// graph-size upper bound the wire decoder cannot know.
func (e *Engine) ValidateRequest(r *Request) error {
	if err := r.validate(); err != nil {
		return err
	}
	for _, v := range r.Nodes {
		if v >= e.n {
			return fmt.Errorf("%w: %d (graph has %d nodes)", ErrNodeRange, v, e.n)
		}
	}
	return nil
}

// shardOf maps a reordered row position to its shard index.
func (e *Engine) shardOf(pos int) int { return pos / e.cfg.ShardRows }

// bandCSR embeds shard s's row band of a as a square n-by-n CSR
// (rows outside the band empty). The band's columns and values are
// copied, never aliased: Mutate recycles the storage of a retired Â,
// so a handle must not point into it.
func bandCSR(a *csr.Matrix, n, shardRows, s int) *csr.Matrix {
	lo := s * shardRows
	hi := lo + shardRows
	if hi > n {
		hi = n
	}
	base := a.RowPtr[lo]
	rp := make([]int32, n+1)
	for i := lo; i < hi; i++ {
		rp[i+1] = a.RowPtr[i+1] - base
	}
	for i := hi; i < n; i++ {
		rp[i+1] = rp[hi]
	}
	return &csr.Matrix{
		N:      n,
		RowPtr: rp,
		ColIdx: append([]int32(nil), a.ColIdx[base:a.RowPtr[hi]]...),
		Val:    append([]float32(nil), a.Val[base:a.RowPtr[hi]]...),
	}
}

// shardBounds returns shard s's row band [lo, hi).
func (e *Engine) shardBounds(s int) (lo, hi int) {
	lo = s * e.cfg.ShardRows
	hi = lo + e.cfg.ShardRows
	if hi > e.n {
		hi = e.n
	}
	return lo, hi
}

// buildShard constructs shard s's dispatch handle: the band embedded
// as a square CSR, plus the V:N:M split unless the mode (or the rung-1
// fallback) is CSR-only. The injector's "serve/shard" site fires here: a straggler delays the
// build; a crash or transient event — like a genuine split or
// metadata-validation failure — trips the sticky SPTC→CSR fallback
// for this shard (degradation rung 1, mirroring gnn.ValidateOperator).
func (e *Engine) buildShard(s int) *shardHandle {
	e.obs.Volatile("serve/shard/build").Inc()
	h := &shardHandle{sub: bandCSR(e.a, e.n, e.cfg.ShardRows, s)}
	if ev := e.inj.Fire("serve/shard"); ev != nil {
		switch ev.Kind {
		case resil.KindStraggler:
			time.Sleep(ev.Delay) // a slow build, not a failed one
		default:
			e.degradeShard(s)
		}
	}
	if e.cfg.Mode == ModeCSR || e.csrOnly[s] {
		return h
	}
	comp, resid, err := venom.SplitToConform(h.sub, e.cfg.Pattern)
	if err == nil {
		err = comp.ValidateMeta()
	}
	if err != nil {
		e.degradeShard(s)
		return h
	}
	h.comp, h.resid = comp, resid
	return h
}

// degradeShard trips shard s's sticky rung-1 CSR fallback.
func (e *Engine) degradeShard(s int) {
	if !e.csrOnly[s] {
		e.csrOnly[s] = true
		e.obs.Volatile("serve/degraded/shards").Inc()
	}
}

// dispatchShard computes shard s's full band against the shared
// right-hand side into the engine's output scratch and returns it.
// Caller holds e.mu.
func (e *Engine) dispatchShard(s int) *dense.Matrix {
	sp := e.obs.VolatileSpan("serve/dispatch")
	defer sp.End()
	h, ok := e.shards.get(s)
	if !ok {
		h = e.buildShard(s)
		e.shards.put(s, h)
	}
	if e.csrOnly[s] || h.comp == nil || e.cfg.Mode == ModeCSR {
		e.obs.Volatile("serve/dispatch/csr").Inc()
		spmm.CSR(e.pool, e.y, h.sub, e.rhs)
		return e.y
	}
	if e.cfg.Mode == ModeAuto {
		if !h.planned {
			h.dec = e.planner.ChooseOperands(plan.Operands{A: h.sub, Comp: h.comp, Resid: h.resid}, e.cfg.FeatureDim)
			h.planned = true
		}
		e.obs.Volatile("serve/dispatch/planned").Inc()
		return plan.Execute(h.dec, e.pool, plan.Operands{A: h.sub, Comp: h.comp, Resid: h.resid}, e.rhs, &e.arena)
	}
	e.obs.Volatile("serve/dispatch/hybrid").Inc()
	spmm.Hybrid(e.pool, e.y, e.scratch, h.comp, h.resid, e.rhs)
	return e.y
}

// gatherRows computes only the given (sorted, reordered) row
// positions through a gathered square CSR and the parallel CSR
// kernel — the load-degradation rung (rung 2): cheaper than full
// band dispatches under pressure, skipping all cache fill so the
// caches only ever hold full-rate rows. CSR row accumulation order
// is identical to the band dispatch's, so in ModeCSR the degraded
// rows are bit-identical; in the hybrid modes they are
// tolerance-bounded instead (summation order differs).
func (e *Engine) gatherRows(positions []int) map[int][]float32 {
	nnz := 0
	for _, p := range positions {
		nnz += e.a.RowNNZ(p)
	}
	g := &csr.Matrix{
		N:      e.n,
		RowPtr: make([]int32, e.n+1),
		ColIdx: make([]int32, 0, nnz),
		Val:    make([]float32, 0, nnz),
	}
	next := 0
	for i := 0; i < e.n; i++ {
		if next < len(positions) && positions[next] == i {
			cols, vals := e.a.Row(i)
			g.ColIdx = append(g.ColIdx, cols...)
			g.Val = append(g.Val, vals...)
			next++
		}
		g.RowPtr[i+1] = int32(len(g.ColIdx))
	}
	spmm.CSR(e.pool, e.y, g, e.rhs)
	rows := make(map[int][]float32, len(positions))
	for _, p := range positions {
		rows[p] = append([]float32(nil), e.y.Row(p)...)
	}
	return rows
}

// ServeBatch answers a coalesced batch of validated requests in one
// locked pass: the union of requested rows is resolved through the
// row cache and deduplicated shard dispatches (or the degraded
// gather path), then per-request responses are assembled. Responses
// are pure functions of (graph, config, request) — batching never
// changes bits because a dispatch always computes a whole band.
func (e *Engine) ServeBatch(reqs []*Request, degraded bool) []*Response {
	e.mu.Lock()
	defer e.mu.Unlock()

	// Union of distinct reordered positions, ascending.
	posSet := make(map[int]struct{})
	for _, r := range reqs {
		for _, v := range r.Nodes {
			posSet[e.inv[v]] = struct{}{}
		}
	}
	positions := make([]int, 0, len(posSet))
	for p := range posSet {
		positions = append(positions, p)
	}
	sort.Ints(positions)
	e.obs.VolatileHist("serve/batch_rows").Observe(int64(len(positions)))

	var rows map[int][]float32
	if degraded {
		e.obs.Volatile("serve/degraded/batches").Inc()
		rows = e.gatherRows(positions)
	} else {
		rows = e.resolveRows(positions)
	}

	resps := make([]*Response, len(reqs))
	total := 0
	for i, r := range reqs {
		resp := &Response{Op: r.Op, Epoch: e.epoch}
		if r.Op == OpClassify {
			resp.Classes = make([]int, len(r.Nodes))
			for j, v := range r.Nodes {
				resp.Classes[j] = e.classify(rows[e.inv[v]])
			}
		} else {
			resp.Rows = make([][]float32, len(r.Nodes))
			for j, v := range r.Nodes {
				resp.Rows[j] = rows[e.inv[v]]
			}
		}
		total += len(r.Nodes)
		resps[i] = resp
	}
	e.obs.Counter("serve/requests").Add(int64(len(reqs)))
	e.obs.Counter("serve/rows").Add(int64(total))
	return resps
}

// resolveRows fills the requested (sorted) positions from the row
// cache, dispatching each shard with at least one miss exactly once
// and inserting its whole band into the cache ascending — so a later
// query for any neighbor in the band hits. Cached slices are
// immutable once stored.
func (e *Engine) resolveRows(positions []int) map[int][]float32 {
	rows := make(map[int][]float32, len(positions))
	for i := 0; i < len(positions); {
		s := e.shardOf(positions[i])
		j := i
		missed := false
		for j < len(positions) && e.shardOf(positions[j]) == s {
			if row, ok := e.rowCache.get(positions[j]); ok {
				e.obs.Volatile("serve/cache/hit").Inc()
				rows[positions[j]] = row
			} else {
				e.obs.Volatile("serve/cache/miss").Inc()
				missed = true
			}
			j++
		}
		if missed {
			y := e.dispatchShard(s)
			// Serve this group straight from the dispatch output (the
			// band rows a too-small cache would immediately evict must
			// still be answered), then fill the cache with the band.
			for k := i; k < j; k++ {
				if rows[positions[k]] == nil {
					rows[positions[k]] = append([]float32(nil), y.Row(positions[k])...)
				}
			}
			if e.cfg.CacheRows > 0 {
				lo, hi := e.shardBounds(s)
				if hi-lo > e.cfg.CacheRows {
					// The band is larger than the whole cache: filling it
					// would churn every previously hot row out and retain
					// only the band's tail — rows nobody asked for. Fill
					// just the rows this batch proved hot instead.
					for k := i; k < j; k++ {
						e.fillRow(positions[k], y)
					}
				} else {
					for r := lo; r < hi; r++ {
						e.fillRow(r, y)
					}
				}
			}
		}
		i = j
	}
	return rows
}

// fillRow inserts row r from dispatch output y into the row cache
// unless it is already cached (a fresh get keeps the hit's recency
// position honest).
func (e *Engine) fillRow(r int, y *dense.Matrix) {
	if _, ok := e.rowCache.get(r); ok {
		return
	}
	e.rowCache.put(r, append([]float32(nil), y.Row(r)...))
	e.obs.Volatile("serve/cache/fill").Inc()
}

// classify returns the argmax class of one aggregation row under the
// linear head (serial accumulation; ties break to the lowest index).
func (e *Engine) classify(row []float32) int {
	best, bestV := 0, float32(0)
	for c := 0; c < e.cfg.Classes; c++ {
		var v float32
		for k, x := range row {
			v += x * e.head.At(k, c)
		}
		if c == 0 || v > bestV {
			best, bestV = c, v
		}
	}
	return best
}
