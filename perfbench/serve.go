package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/serve"
	"repro/internal/wal"
)

// The serve workloads use sogre-serve's defaults (hybrid dispatch,
// shard-rows 512, cache-rows 4096, queue-limit 256, max-request-nodes
// 1024, mutate-queue-limit 64) and two closed-loop clients: a closed
// loop because an open-loop schedule at a fixed rate moved p50 and p99
// between runs far more than the bounds allow on a two-core machine.
// serve-read alone has enough samples (about 3500 a run) to report the
// median over five windows, each still holding hundreds of queries.
var serveReadFull = sizes{
	Nodes: 16384, Pattern: "4:2:8", Clients: 2, ReqNodes: 16, Windows: 5, Setups: 3, Warmup: 1,
}

var serveMixedFull = sizes{
	Nodes: 4096, Pattern: "4:2:8", Clients: 2, ReqNodes: 16, WriteRatio: 0.1, Setups: 3, Warmup: 1,
}

// scriptSlots bounds each client's generated script; a client that
// reaches the end wraps around.
const scriptSlots = 6000

// Request headers carrying the client's operation id to the handler
// wrapper, so server-side spans join the client's operation.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Parent"
)

func serveReadPhase(cfg runConfig, setups int, tr *tracer) (*phaseResult, error) {
	return servePhase(cfg, setups, tr, false)
}

func serveMixedPhase(cfg runConfig, setups int, tr *tracer) (*phaseResult, error) {
	return servePhase(cfg, setups, tr, true)
}

// slotResult is one client slot's outcome.
type slotResult struct {
	slot     int // index into the client's script
	read     bool
	ok       bool
	counted  bool // inside the measured window
	lat      time.Duration
	start    time.Time
	checksum uint64
}

func servePhase(cfg runConfig, setups int, tr *tracer, mixed bool) (*phaseResult, error) {
	sz := cfg.size
	g, err := graph.GenerateByName("er", sz.Nodes, graphSeed)
	if err != nil {
		return nil, err
	}
	p, err := pattern.Parse(sz.Pattern)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	ecfg := serve.EngineConfig{
		Pattern: p, Seed: cfg.seed, ShardRows: 512, CacheRows: 4096,
		Mode: serve.ModeHybrid, Obs: reg, Mutable: mixed,
	}
	res := &phaseResult{op: "op.query", extra: map[string]any{}, layers: map[string]float64{}}
	if mixed {
		res.op = "op.mutate"
	}

	var eng *serve.Engine
	var log *wal.Log
	walPath := filepath.Join(dir, "mutations.wal")
	for i := 0; i < setups; i++ {
		if log != nil {
			log.Close()
		}
		os.Remove(walPath)
		req := tr.req()
		root := tr.begin("setup", 0, req)
		t0 := time.Now()
		sp := tr.begin("serve.NewEngine", root.id(), req)
		eng, err = serve.NewEngine(g, ecfg)
		sp.end()
		if err != nil {
			return nil, err
		}
		if mixed {
			sp = tr.begin("serve.OpenWAL", root.id(), req)
			log, _, err = serve.OpenWAL(eng, walPath)
			sp.end()
			if err != nil {
				return nil, err
			}
		}
		res.setup = append(res.setup, time.Since(t0))
		root.end()
	}
	if log != nil {
		defer log.Close()
	}

	scfg := serve.ServerConfig{QueueLimit: 256, MaxRequestNodes: 1024, MutateQueueLimit: 64, WAL: log}
	srv, err := serve.NewServer(eng, scfg)
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()
	if tr != nil {
		handler = tracedHandler(handler, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // clients are done; nothing is in flight
		<-served
		srv.Close()
	}

	script, err := serve.GenerateMixedScript(serve.MixedScriptConfig{
		Seed: cfg.seed, Clients: sz.Clients, Requests: scriptSlots, N: sz.Nodes,
		MinNodes: sz.ReqNodes, MaxNodes: sz.ReqNodes, ClassifyEvery: 4,
		WriteRatio: sz.WriteRatio, MutOps: 4,
	})
	if err != nil {
		stop()
		return nil, err
	}
	out := driveClients(ln.Addr().String(), script, cfg, tr)
	stop()

	mutations := 0
	for _, rs := range out {
		for _, r := range rs {
			if !r.read && r.ok {
				mutations++
			}
			if !r.counted {
				res.warm.add(r.ok)
				continue
			}
			res.ops.add(r.ok)
			// serve-mixed times its mutation batches: they carry the
			// workload's cost, while a read's latency and rate there
			// mostly reflect which mutation it shared the CPU with
			// (their run-to-run spread is 0.2 to 0.5 of the median).
			if r.ok && r.read != mixed {
				res.lat = append(res.lat, sample{r.start, r.lat})
			}
		}
	}
	res.extra["nodes"] = g.N()
	res.extra["arcs"] = g.NumEdges()
	res.extra["mutation_batches"] = mutations

	if tr != nil {
		serveLayers(res, reg.Snapshot(), tr)
	}
	if mixed {
		mixedCheck(g, ecfg, eng, walPath, mutations, cfg.seed, res)
	} else {
		readCheck(eng, script, out, res)
	}
	return res, nil
}

// driveClients runs one closed-loop goroutine per script stream until
// the measured window closes and returns every slot's outcome.
func driveClients(addr string, script [][]serve.MixedOp, cfg runConfig, tr *tracer) [][]slotResult {
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: len(script), MaxConnsPerHost: len(script)},
	}
	defer client.CloseIdleConnections()
	start := time.Now()
	warmEnd := start.Add(time.Duration(cfg.size.Warmup * float64(time.Second)))
	end := warmEnd.Add(cfg.measure)
	out := make([][]slotResult, len(script))
	var wg sync.WaitGroup
	for c := range script {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				slot := i % len(script[c])
				r := issue(client, addr, script[c][slot], tr)
				r.slot, r.start = slot, t0
				r.counted = !t0.Before(warmEnd)
				out[c] = append(out[c], r)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// issue sends one slot and classifies the outcome: any transport
// error, timeout or non-200 status is a failure.
func issue(client *http.Client, addr string, op serve.MixedOp, tr *tracer) slotResult {
	r := slotResult{read: op.Req != nil}
	var path string
	var body []byte
	name := "op.query"
	if r.read {
		path, body = "/v1/query", op.Req.Render()
	} else {
		name, path = "op.mutate", "/v1/mutate"
		body, _ = json.Marshal(&serve.MutateRequest{Ops: (&dyn.Stream{Ops: op.Muts}).String()}) // a string field cannot fail
	}
	req := tr.req()
	root := tr.begin(name, 0, req)
	t0 := time.Now()
	hreq, err := http.NewRequest(http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return r
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tr != nil {
		hreq.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hreq.Header.Set(hdrParent, strconv.FormatInt(root.id(), 10))
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(t0)
	root.end()
	if err != nil || resp.StatusCode != http.StatusOK {
		return r
	}
	if r.read {
		parsed, err := serve.ParseResponse(data)
		if err != nil {
			return r
		}
		r.checksum = parsed.Checksum()
	} else if _, err := serve.ParseMutateResponse(data); err != nil {
		return r
	}
	r.ok = true
	return r
}

// tracedHandler is the benchmark's server-side wrapper: one span per
// request, joined to the client's operation through the headers.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		name := "serve.handler"
		if r.URL.Path == "/v1/mutate" {
			name = "serve.handler.mutate"
		}
		sp := tr.begin(name, parent, req)
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// serveLayers reads the serve, dyn and wal counters the program
// already emits, plus the handler and transport split from the spans.
func serveLayers(res *phaseResult, snap *obs.Snapshot, tr *tracer) {
	l := res.layers
	l["serve.engine_build_ms"] = ms(median(tr.named("serve.NewEngine")))
	l["serve.handler_p50_ms"] = ms(median(tr.named("serve.handler")))
	l["serve.transport_p50_ms"] = ms(median(tr.selfTimes("op.query")))
	l["serve.mutate_handler_p50_ms"] = ms(median(tr.named("serve.handler.mutate")))
	v := snap.Volatile
	if hits, miss := v["serve/cache/hit"], v["serve/cache/miss"]; hits+miss > 0 {
		l["serve.row_cache_hit_ratio"] = float64(hits) / float64(hits+miss)
	}
	l["serve.batch_mean_requests"] = histMean(snap.VolatileHists["serve/batch_requests"])
	l["serve.queue_depth_mean"] = histMean(snap.VolatileHists["serve/queue_depth"])
	l["serve.shard_builds"] = float64(v["serve/shard/build"])
	l["serve.rejected"] = float64(v["serve/rejected"] + v["serve/mutate/rejected"])
	if s := snap.VolatileSpans["serve/epoch/build"]; s.Count > 0 {
		l["serve.epoch_build_ms"] = float64(s.TotalNs) / float64(s.Count) / 1e6
	}
	l["serve.csr_window_batches"] = float64(v["serve/epoch/csr_window_batches"])
	c := snap.Counters
	l["dyn.applied_ops"] = float64(c["serve/epoch/applied"])
	l["dyn.rejected_ops"] = float64(c["serve/epoch/rejected"])
	l["dyn.rebuilds"] = float64(c["dyn/rebuilds"])
	l["dyn.repair_swaps"] = float64(c["dyn/repair_swaps"])
	l["wal.commits"] = float64(v["serve/wal/commits"])
	if n := v["serve/wal/commits"]; n > 0 {
		l["wal.records_per_commit"] = float64(c["serve/wal/records"]) / float64(n)
	}
	l["wal.bytes"] = float64(c["serve/wal/bytes"])
}

func histMean(h obs.HistSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// readCheck replays every answered query serially through
// Engine.ServeBatch and requires the same response bits, request by
// request; responses of a read-only engine are pure functions of the
// request. It also stamps the order-independent checksum of the first
// slots of each client, which is identical across runs of one seed.
func readCheck(eng *serve.Engine, script [][]serve.MixedOp, out [][]slotResult, res *phaseResult) {
	const prefix = 64
	var live, replay, prefixSum uint64
	for c, rs := range out {
		for lo := 0; lo < len(rs); lo += 32 {
			batch := rs[lo:min(lo+32, len(rs))]
			reqs := make([]*serve.Request, 0, len(batch))
			for _, r := range batch {
				reqs = append(reqs, script[c][r.slot].Req)
			}
			resps := eng.ServeBatch(reqs, false)
			for k, r := range batch {
				sum := resps[k].Checksum()
				if lo+k < prefix {
					prefixSum += sum
				}
				if !r.ok {
					continue
				}
				live += r.checksum
				replay += sum
				if r.checksum != sum {
					res.fail("client %d slot %d: response %016x, serial replay %016x", c, r.slot, r.checksum, sum)
				} else {
					res.pass()
				}
			}
		}
	}
	res.extra["checksum"] = fmt.Sprintf("%016x", live)
	res.extra["replay_checksum"] = fmt.Sprintf("%016x", replay)
	res.extra["prefix_checksum"] = fmt.Sprintf("%016x", prefixSum)
}

// mixedCheck replays the WAL into a fresh engine and requires the live
// engine's epoch (one per acknowledged batch) and identical answers to
// a fixed probe script.
func mixedCheck(g *graph.Graph, ecfg serve.EngineConfig, live *serve.Engine, walPath string, acked int, seed int64, res *phaseResult) {
	live.WaitWarm()
	if e := live.Epoch(); e != uint64(acked) {
		res.fail("live epoch %d after %d acknowledged mutation batches", e, acked)
	} else {
		res.pass()
	}
	ecfg.Obs = nil
	fresh, err := serve.NewEngine(g, ecfg)
	if err != nil {
		res.fail("fresh engine: %v", err)
		return
	}
	log, replayed, err := serve.OpenWAL(fresh, walPath)
	if err != nil {
		res.fail("WAL replay: %v", err)
		return
	}
	log.Close()
	fresh.WaitWarm()
	if fresh.Epoch() != live.Epoch() {
		res.fail("replayed epoch %d (%d batches), live epoch %d", fresh.Epoch(), replayed, live.Epoch())
	} else {
		res.pass()
	}
	probe, err := serve.GenerateScript(serve.ScriptConfig{Seed: seed + 1, Clients: 1, Requests: 64, N: fresh.N(), MinNodes: 16, MaxNodes: 16, ClassifyEvery: 4})
	if err != nil {
		res.fail("probe script: %v", err)
		return
	}
	var a, b uint64
	for _, r := range live.ServeBatch(probe[0], false) {
		a += r.Checksum()
	}
	for _, r := range fresh.ServeBatch(probe[0], false) {
		b += r.Checksum()
	}
	if a != b {
		res.fail("probe checksum: live %016x, WAL replay %016x", a, b)
	} else {
		res.pass()
	}
	res.extra["epoch"] = live.Epoch()
	res.extra["probe_checksum"] = fmt.Sprintf("%016x", a)
}
