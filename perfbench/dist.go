package main

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/distributed"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/resil"
)

// distFull is a community graph cut into BFS partitions of at most
// 1024 rows, multiplied by a 32-wide dense operand on two loopback
// workers (one per core).
var distFull = sizes{
	Nodes: 16384, Degree: 8, MaxN: 1024, Pattern: "1:2:4", Features: 32, Setups: 15, Warmup: 1,
}

// distWorkers is the loopback worker count; each worker computes on a
// pool of one, so the cluster uses the machine's two cores.
const distWorkers = 2

// timedWorker is the benchmark's wrapper registered as the "Worker"
// RPC service: it times every call into distributed.Worker and
// counts the payload bytes each one moves.
type timedWorker struct {
	inner *distributed.Worker
	tr    *tracer
	req   *atomic.Int64 // the coordinator call in flight
	bytes *atomic.Int64
}

func (w *timedWorker) Load(args *distributed.LoadArgs, reply *distributed.LoadReply) error {
	sp := w.tr.begin("distributed.Worker.Load", 0, w.req.Load())
	defer sp.end()
	w.bytes.Add(int64(len(args.GraphShard) + 4*len(args.BData)))
	return w.inner.Load(args, reply)
}

func (w *timedWorker) Compute(args *distributed.ComputeArgs, reply *distributed.ComputeReply) error {
	sp := w.tr.begin("distributed.Worker.Compute", 0, w.req.Load())
	defer sp.end()
	err := w.inner.Compute(args, reply)
	w.bytes.Add(int64(8*len(args.Part) + 8*len(reply.Rows) + 4*len(reply.Data)))
	return err
}

func (w *timedWorker) Ping(args *distributed.PingArgs, reply *distributed.PingReply) error {
	return w.inner.Ping(args, reply)
}

// cluster is a coordinator dialled to in-process loopback workers.
type cluster struct {
	*distributed.Cluster
	lns []net.Listener
	wg  sync.WaitGroup // accept loops and connection handlers
}

// startCluster starts the workers on ephemeral loopback ports and
// dials them.
func startCluster(tr *tracer, req *atomic.Int64, bytes *atomic.Int64, parent, setupReq int64) (*cluster, error) {
	c := &cluster{}
	var addrs []string
	for i := 0; i < distWorkers; i++ {
		sp := tr.begin("distributed.StartWorker", parent, setupReq)
		srv := rpc.NewServer()
		err := srv.RegisterName("Worker", &timedWorker{
			inner: distributed.NewWorker(distributed.WorkerConfig{Workers: 1}),
			tr:    tr, req: req, bytes: bytes,
		})
		var ln net.Listener
		if err == nil {
			ln, err = net.Listen("tcp", "127.0.0.1:0")
		}
		sp.end()
		if err != nil {
			c.close()
			return nil, err
		}
		c.lns = append(c.lns, ln)
		addrs = append(addrs, ln.Addr().String())
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return // listener closed
				}
				c.wg.Add(1)
				go func() {
					defer c.wg.Done()
					srv.ServeConn(conn)
				}()
			}
		}()
	}
	sp := tr.begin("distributed.Dial", parent, setupReq)
	cl, err := distributed.Dial(addrs)
	sp.end()
	if err != nil {
		c.close()
		return nil, err
	}
	c.Cluster = cl
	return c, nil
}

// close drops the connections and listeners and waits for every
// worker goroutine to return.
func (c *cluster) close() {
	if c.Cluster != nil {
		c.Cluster.Close()
	}
	for _, ln := range c.lns {
		ln.Close()
	}
	c.wg.Wait()
}

func distPhase(cfg runConfig, setups int, tr *tracer) (*phaseResult, error) {
	sz := cfg.size
	g, err := datasets.Family("community", sz.Nodes, sz.Degree, graphSeed)
	if err != nil {
		return nil, err
	}
	p, err := pattern.Parse(sz.Pattern)
	if err != nil {
		return nil, err
	}
	b := dense.NewMatrix(g.N(), sz.Features)
	b.Randomize(1, cfg.seed+1)
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	res := &phaseResult{op: "op.dist", extra: map[string]any{}, layers: map[string]float64{}}

	var cur, sent atomic.Int64
	var cl *cluster
	for i := 0; i < setups; i++ {
		if cl != nil {
			cl.close()
		}
		req := tr.req()
		root := tr.begin("setup", 0, req)
		t0 := time.Now()
		cl, err = startCluster(tr, &cur, &sent, root.id(), req)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0))
		root.end()
	}
	defer cl.close()

	dcfg := distributed.DistConfig{Obs: reg}
	start := time.Now()
	warmEnd := start.Add(time.Duration(sz.Warmup * float64(time.Second)))
	end := warmEnd.Add(cfg.measure)
	var sums []uint64
	sentMark := int64(-1)
	for t0 := time.Now(); t0.Before(end); t0 = time.Now() {
		if sentMark < 0 && !t0.Before(warmEnd) {
			sentMark = sent.Load()
		}
		req := tr.req()
		cur.Store(req)
		root := tr.begin(res.op, 0, req)
		out, err := cl.DistributedSpMM(g, b, sz.MaxN, p, core.Options{}, dcfg)
		root.end()
		t1 := time.Now()
		ok := err == nil
		if !t0.Before(warmEnd) {
			res.ops.add(ok)
			if ok {
				res.lat = append(res.lat, sample{t0, t1.Sub(t0)})
			}
		} else {
			res.warm.add(ok)
		}
		if ok {
			sums = append(sums, resil.Checksum(out.Data))
		}
	}
	res.extra["nodes"] = g.N()
	res.extra["arcs"] = g.NumEdges()

	if tr != nil {
		l := res.layers
		loads, comps := tr.named("distributed.Worker.Load"), tr.named("distributed.Worker.Compute")
		l["distributed.load_p50_ms"] = ms(median(loads))
		l["distributed.load_max_ms"] = ms(percentile(loads, 100))
		l["distributed.compute_p50_ms"] = ms(median(comps))
		l["distributed.compute_max_ms"] = ms(percentile(comps, 100))
		l["distributed.rpc_overhead_ms"] = ms(median(tr.selfTimes(res.op)))
		if n := res.ops.Attempted; n > 0 {
			l["distributed.bytes_sent_mb"] = float64(sent.Load()-sentMark) / float64(n) / (1 << 20)
		}
		l["distributed.redispatches"] = float64(reg.Snapshot().Volatile["dist/redispatch"])
		l["core.partitions"] = float64(len(core.BFSPartition(g, sz.MaxN)))
	}

	// Every call must equal the in-process partitioned path bit for bit.
	ref, _, err := distributed.PartitionedSpMM(g, b, sz.MaxN, p, core.Options{})
	if err != nil {
		res.fail("in-process PartitionedSpMM: %v", err)
		return res, nil
	}
	want := resil.Checksum(ref.Data)
	for i, s := range sums {
		if s != want {
			res.fail("call %d: checksum %016x, in-process %016x", i, s, want)
		} else {
			res.pass()
		}
	}
	res.extra["checksum"] = fmt.Sprintf("%016x", want)
	return res, nil
}
