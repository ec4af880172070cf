package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sptc"
)

// trainFull is a Computers-shaped SBM (Table 2 degree and homophily)
// narrowed to 32 features. Its size keeps three timed set-ups inside
// the run budget; aggregation still dominates the epoch.
var trainFull = sizes{
	Scale: 0.25, Features: 32, Hidden: 64, MaxN: 8192, Pattern: "4:2:8",
	CheckEpoch: 10, Setups: 3, Warmup: 1,
}

// trainChunk is how many epochs one gnn.Train call runs before the
// benchmark resumes it from the last checkpoint, so the measured
// window can end between epochs.
const trainChunk = 4

// trainData is one seed's dataset in original and reordered numbering.
type trainData struct {
	ds *datasets.Dataset
	x  *dense.Matrix // ds.X narrowed to the configured width
	p  pattern.VNM
}

// trainReady is the state one set-up produces.
type trainReady struct {
	perm   []int
	x      *dense.Matrix
	labels []int
	split  gnn.Split
	w      *csr.Matrix
	op     gnn.Operator
	ledger *gnn.Ledger
	lr     *core.LargeResult
}

func trainInputs(cfg runConfig) (*trainData, error) {
	var meta datasets.Meta
	for _, m := range datasets.GNNDatasetMetas {
		if m.Name == "Computers" {
			meta = m
		}
	}
	ds := datasets.Generate(meta, datasets.GenOptions{Scale: cfg.size.Scale, Seed: graphSeed, MaxClasses: 12})
	ds.Split = gnn.RandomSplit(ds.G.N(), 0.3, 0.2, cfg.seed)
	p, err := pattern.Parse(cfg.size.Pattern)
	if err != nil {
		return nil, err
	}
	f := min(cfg.size.Features, ds.X.Cols)
	x := dense.NewMatrix(ds.X.Rows, f)
	for i := 0; i < x.Rows; i++ {
		copy(x.Row(i), ds.X.Row(i)[:f])
	}
	return &trainData{ds: ds, x: x, p: p}, nil
}

// trainSetup is the timed path from inputs to a ready operator:
// partitioned reorder, renumbering, normalization, V:N:M build.
func trainSetup(d *trainData, pool *sched.Pool, reg *obs.Registry, tr *tracer) (*trainReady, error) {
	req := tr.req()
	root := tr.begin("setup", 0, req)
	defer root.end()
	call := func(name string) active { return tr.begin(name, root.id(), req) }

	sp := call("core.ReorderLarge")
	lr, err := core.ReorderLarge(d.ds.G, core.LargeOptions{Pattern: d.p, Obs: reg})
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = call("graph.ApplyPermutation")
	g, err := d.ds.G.ApplyPermutation(lr.Perm)
	sp.end()
	if err != nil {
		return nil, err
	}
	r := &trainReady{perm: lr.Perm, lr: lr, x: dense.NewMatrix(d.x.Rows, d.x.Cols), labels: make([]int, len(lr.Perm))}
	inv := make([]int, len(lr.Perm))
	for newPos, old := range lr.Perm {
		copy(r.x.Row(newPos), d.x.Row(old))
		r.labels[newPos] = d.ds.Labels[old]
		inv[old] = newPos
	}
	// Mapping keeps each index list's order, so the masked loss sums
	// in the same order as the original-numbering reference.
	mapIdx := func(in []int) []int {
		out := make([]int, len(in))
		for i, v := range in {
			out[i] = inv[v]
		}
		return out
	}
	r.split = gnn.Split{Train: mapIdx(d.ds.Split.Train), Val: mapIdx(d.ds.Split.Val), Test: mapIdx(d.ds.Split.Test)}

	sp = call("csr.SymNormalized")
	r.w = csr.SymNormalized(g)
	sp.end()
	r.ledger = &gnn.Ledger{Obs: reg}
	f := &gnn.Factory{Kind: gnn.EngineSPTC, Pattern: d.p, Cost: sptc.DefaultCostModel(), Ledger: r.ledger, Pool: pool}
	sp = call("gnn.Factory.Make")
	r.op, err = f.Make(r.w)
	sp.end()
	return r, err
}

// opTally is aggregation work: calls, time inside them, and the
// computed flops and bytes they imply.
type opTally struct {
	calls        int
	busy         time.Duration
	flops, bytes float64
}

func (t *opTally) add(o opTally) {
	t.calls += o.calls
	t.busy += o.busy
	t.flops += o.flops
	t.bytes += o.bytes
}

// timedOp is the benchmark's aggregation wrapper: it times every
// Mul/MulT the model issues and tallies computed work.
type timedOp struct {
	gnn.Operator
	tr    *tracer
	req   *int64 // current epoch's operation id
	nnz   int
	tally opTally
}

func (o *timedOp) Mul(x *dense.Matrix) *dense.Matrix  { return o.time(x, o.Operator.Mul) }
func (o *timedOp) MulT(x *dense.Matrix) *dense.Matrix { return o.time(x, o.Operator.MulT) }

func (o *timedOp) time(x *dense.Matrix, f func(*dense.Matrix) *dense.Matrix) *dense.Matrix {
	sp := o.tr.begin("spmm.agg", 0, *o.req)
	t0 := time.Now()
	y := f(x)
	o.tally.busy += time.Since(t0)
	sp.end()
	n, w := float64(o.N()), float64(x.Cols)
	o.tally.calls++
	o.tally.flops += 2 * float64(o.nnz) * w
	// CSR-equivalent compulsory traffic: values and column indices,
	// row pointers, the dense operand read and the result written.
	o.tally.bytes += 8*float64(o.nnz) + 4*(n+1) + 8*n*w
	return y
}

// take returns the work tallied since the previous take.
func (o *timedOp) take() opTally {
	if o == nil {
		return opTally{}
	}
	t := o.tally
	o.tally = opTally{}
	return t
}

func trainPhase(cfg runConfig, setups int, tr *tracer) (*phaseResult, error) {
	d, err := trainInputs(cfg)
	if err != nil {
		return nil, err
	}
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	pool := sched.New(0)
	res := &phaseResult{op: "op.epoch", extra: map[string]any{}, layers: map[string]float64{}}
	var rd *trainReady
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if rd, err = trainSetup(d, pool, reg, tr); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0))
	}
	res.extra["nodes"] = d.ds.G.N()
	res.extra["arcs"] = d.ds.G.NumEdges()
	res.extra["classes"] = d.ds.Classes

	var curReq int64
	op := rd.op
	var top *timedOp
	if tr != nil {
		top = &timedOp{Operator: rd.op, tr: tr, req: &curReq, nnz: rd.w.NNZ()}
		op = top
	}
	mcfg := gnn.Config{In: rd.x.Cols, Hidden: cfg.size.Hidden, Classes: d.ds.Classes, Seed: cfg.seed + 11}
	model, err := gnn.Build(gnn.KindGCN, op, rd.ledger, mcfg)
	if err != nil {
		return nil, err
	}

	// Epoch boundaries come from the per-epoch checkpoint callback;
	// chunks resume from the last checkpoint, which gnn.Train makes
	// bit-identical to one uninterrupted run.
	start := time.Now()
	warmEnd := start.Add(time.Duration(cfg.size.Warmup * float64(time.Second)))
	end := warmEnd.Add(cfg.measure)
	var last, atCheck *gnn.Checkpoint
	var epochStart time.Time
	var agg opTally // over measured epochs
	var epochSum time.Duration
	curReq = tr.req()
	tcfg := gnn.TrainConfig{LR: 0.02, WD: 5e-4, Obs: reg, CheckpointEvery: 1}
	tcfg.Checkpoint = func(cp *gnn.Checkpoint) {
		now := time.Now()
		tr.record(span{Name: res.op, Req: curReq}, epochStart, now)
		work := top.take()
		switch {
		case epochStart.Before(warmEnd):
			res.warm.add(true)
		case epochStart.Before(end):
			d := now.Sub(epochStart)
			res.lat = append(res.lat, sample{epochStart, d})
			res.ops.add(true)
			epochSum += d
			agg.add(work)
		}
		last = cp
		if cp.Epoch == cfg.size.CheckEpoch {
			atCheck = cp
		}
		curReq = tr.req()
		epochStart = time.Now()
	}
	done := 0
	for time.Now().Before(end) || done < cfg.size.CheckEpoch {
		tcfg.Epochs, tcfg.Resume = done+trainChunk, last
		top.take() // the previous chunk's closing evaluation is not epoch work
		epochStart = time.Now()
		gnn.Train(model, rd.x, rd.labels, rd.split, tcfg)
		done += trainChunk
	}
	res.extra["epochs"] = done

	if tr != nil {
		l := res.layers
		l["core.reorder_ms"] = ms(median(tr.named("core.ReorderLarge")))
		l["core.partitions"] = float64(len(rd.lr.Partitions))
		l["core.improvement_rate"] = rd.lr.ImprovementRate()
		l["venom.operator_build_ms"] = ms(median(tr.named("gnn.Factory.Make")))
		if ro, ok := rd.op.(interface{ ResidualNNZ() int }); ok {
			l["venom.residual_nnz_share"] = float64(ro.ResidualNNZ()) / float64(rd.w.NNZ())
		}
		if e := float64(len(res.lat)); e > 0 {
			l["spmm.agg_ms_per_epoch"] = ms(agg.busy) / e
			l["spmm.agg_calls"] = float64(agg.calls) / e
			l["spmm.gflops"] = agg.flops / agg.busy.Seconds() / 1e9
			l["spmm.bytes_moved_mb"] = agg.bytes / e / (1 << 20)
			l["gnn.dense_ms_per_epoch"] = ms(epochSum-agg.busy) / e
		}
		l["sched.steals"] = float64(reg.Snapshot().Volatile["sched/steals"])
	}

	trainCheck(d, rd, model, atCheck, mcfg, pool, res)
	return res, nil
}

// trainCheck compares the measured run against the default-original
// setting: CSR aggregation on the original numbering, same seeds, same
// epoch count. Test accuracy must be equal and the logits must agree
// within check.SampledTolerance (the repository's bound for CSR-vs-
// SPTC training agreement; the two paths differ only in float32
// summation order).
func trainCheck(d *trainData, rd *trainReady, model gnn.Model, cp *gnn.Checkpoint, mcfg gnn.Config, pool *sched.Pool, res *phaseResult) {
	k := cp.Epoch
	base := gnn.TrainConfig{Epochs: k, LR: 0.02, WD: 5e-4}
	ledger := &gnn.Ledger{}
	f := &gnn.Factory{Kind: gnn.EngineCSR, Cost: sptc.DefaultCostModel(), Ledger: ledger, Pool: pool}
	refOp, err := f.Make(csr.SymNormalized(d.ds.G))
	if err != nil {
		res.fail("reference operator: %v", err)
		return
	}
	ref, err := gnn.Build(gnn.KindGCN, refOp, ledger, mcfg)
	if err != nil {
		res.fail("reference model: %v", err)
		return
	}
	want := gnn.Train(ref, d.x, d.ds.Labels, d.ds.Split, base)
	resumed := base
	resumed.Resume = cp
	got := gnn.Train(model, rd.x, rd.labels, rd.split, resumed)
	if got.TestAcc != want.TestAcc {
		res.fail("test accuracy after %d epochs: reordered SPTC %v, original CSR %v", k, got.TestAcc, want.TestAcc)
	} else {
		res.pass()
	}
	wl, gl := ref.Forward(d.x), model.Forward(rd.x)
	worst := 0.0
	for newPos, old := range rd.perm {
		a, b := gl.Row(newPos), wl.Row(old)
		for j := range a {
			diff := math.Abs(float64(a[j]) - float64(b[j]))
			worst = math.Max(worst, diff/math.Max(1, math.Abs(float64(b[j]))))
		}
	}
	if worst > check.SampledTolerance {
		res.fail("logits differ by %v (> %v) from the original CSR path", worst, check.SampledTolerance)
	} else {
		res.pass()
	}
	res.extra["test_acc"] = got.TestAcc
	res.extra["logit_rel_diff"] = fmt.Sprintf("%.3g", worst)
}
