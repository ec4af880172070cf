package distributed

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/spmm"
	"repro/internal/venom"
)

// PartitionedSpMM computes C = A x B for a graph adjacency A too large
// for one device, following the paper's Section 4.4 recipe: partition
// the vertex set, reorder each partition's local adjacency
// independently, run the SPTC kernel on each reordered diagonal block,
// reorder the partial results back, and accumulate them together with
// the cross-partition (off-diagonal) contributions computed on the
// CSR path. The result is bit-compatible with the direct global SpMM.
//
// Returns the result and the per-partition reorder outcomes.
func PartitionedSpMM(g *graph.Graph, b *dense.Matrix, maxN int, p pattern.VNM, opt core.Options) (*dense.Matrix, []*core.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	n := g.N()
	if b.Rows != n {
		return nil, nil, fmt.Errorf("distributed: B has %d rows, want %d", b.Rows, n)
	}
	parts := core.BFSPartition(g, maxN)
	c := dense.NewMatrix(n, b.Cols)
	results := make([]*core.Result, len(parts))

	// Mark each vertex's partition for the cross-edge pass.
	partOf := make([]int32, n)
	for pi, part := range parts {
		for _, v := range part {
			partOf[v] = int32(pi)
		}
	}

	// Diagonal blocks: reorder + compress + SPTC kernel, fanned out on
	// the execution pool (one simulated device each) — a bounded worker
	// set rather than a goroutine per partition, shared with each
	// partition's internal reordering phases.
	pool := opt.ExecutionPool()
	if opt.Pool == nil {
		opt.Pool = pool
	}
	errs := make([]error, len(parts))
	runErr := pool.Run(len(parts), func(pi int) {
		out, err := computePartition(g, b, parts[pi], p, opt)
		if err != nil {
			errs[pi] = err
			return
		}
		results[pi] = out.res
		out.scatter(c)
	})
	if runErr != nil {
		return nil, nil, runErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	crossPartitionPass(g, b, c, partOf)
	return c, results, nil
}

// partOut is one partition's computed contribution, held apart from the
// shared output matrix so a worker can ship it to the coordinator,
// which verifies it before committing — the "partial result in
// transit" of the paper's distributed setting.
type partOut struct {
	res    *core.Result
	localC *dense.Matrix
	rows   []int // rows[j] is local row j's global target row
}

// scatter commits the partition's rows into the global result. Safe to
// run concurrently across partitions: partitions own disjoint global
// rows.
func (o *partOut) scatter(c *dense.Matrix) {
	for j, r := range o.rows {
		copy(c.Row(r), o.localC.Row(j))
	}
}

// computePartition is the pure per-partition diagonal-block pipeline:
// reorder the induced subgraph, split to the conforming + residual
// hybrid, gather B rows in reordered order, run the SPTC kernel (CSR
// for the residual), and report the rows in global coordinates. It
// reads only immutable inputs and returns a fresh result, so the
// recovery layer can re-run it after a crash, straggler re-dispatch, or
// detected corruption and obtain a bit-identical partial result
// (DESIGN.md §10).
func computePartition(g *graph.Graph, b *dense.Matrix, part []int, p pattern.VNM, opt core.Options) (*partOut, error) {
	sub, orig := g.Subgraph(part)
	res, err := core.Reorder(sub.ToBitMatrix(), p, opt)
	if err != nil {
		return nil, err
	}
	a := csr.FromBitMatrix(res.Matrix)
	comp, resid, err := venom.SplitToConform(a, p)
	if err != nil {
		return nil, err
	}
	// Gather B rows in the partition's reordered order: local row j
	// corresponds to original vertex orig[res.Perm[j]].
	localB := dense.NewMatrix(len(part), b.Cols)
	for j := 0; j < len(part); j++ {
		copy(localB.Row(j), b.Row(orig[res.Perm[j]]))
	}
	localC := spmm.Hybrid(sched.Default(), nil, nil, comp, resid, localB)
	// Reorder back before accumulation (the paper's phrase): local row
	// j lands on global row orig[res.Perm[j]].
	rows := make([]int, len(part))
	for j := 0; j < len(part); j++ {
		rows[j] = orig[res.Perm[j]]
	}
	return &partOut{res: res, localC: localC, rows: rows}, nil
}

// crossPartitionPass adds the off-diagonal contributions on the CSR
// path: C[u] += B[v] for every edge (u, v) spanning partitions.
func crossPartitionPass(g *graph.Graph, b, c *dense.Matrix, partOf []int32) {
	bitmat.ParallelRows(g.N(), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			cr := c.Row(u)
			for _, v := range g.Neighbors(u) {
				if partOf[u] == partOf[v] {
					continue
				}
				br := b.Row(int(v))
				for j, bv := range br {
					cr[j] += bv
				}
			}
		}
	})
}
