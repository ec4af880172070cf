package distributed

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/rpc"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/resil"
	"repro/internal/shard"
)

// TestMain doubles as the worker-process entry point: when the
// re-exec env var is set, the test binary becomes a genuine worker
// process serving RPC on a loopback port (announced through a ready
// file), so the multi-process tests exercise real sockets, real
// process boundaries, and real kill -9 — not goroutine simulation.
func TestMain(m *testing.M) {
	if addrFile := os.Getenv("SOGRE_WORKER_ADDR_FILE"); addrFile != "" {
		runWorkerProcess(addrFile)
		return
	}
	os.Exit(m.Run())
}

func runWorkerProcess(addrFile string) {
	crashAfter, _ := strconv.Atoi(os.Getenv("SOGRE_WORKER_CRASH_AFTER"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Announce readiness atomically: write then rename, so the parent
	// never reads a half-written address.
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ServeWorker(ln, WorkerConfig{Workers: 1, CrashAfterJobs: crashAfter})
}

// spawnWorkerProcess re-execs the test binary as a worker and waits
// for its address. The returned process is killed at test cleanup.
func spawnWorkerProcess(t *testing.T, crashAfter int) (addr string, cmd *exec.Cmd) {
	t.Helper()
	addrFile := t.TempDir() + "/addr"
	cmd = exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"SOGRE_WORKER_ADDR_FILE="+addrFile,
		"SOGRE_WORKER_CRASH_AFTER="+strconv.Itoa(crashAfter),
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil {
			return string(b), cmd
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("worker process never announced its address")
	return "", nil
}

func distFixture(t *testing.T) (*graph.Graph, *dense.Matrix, pattern.VNM) {
	t.Helper()
	g := graph.Banded(600, 2, 0.9, 3)
	b := dense.NewMatrix(g.N(), 8)
	b.Randomize(1, 11)
	return g, b, pattern.NM(2, 4)
}

func requireSameBits(t *testing.T, want, got *dense.Matrix, label string) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: bit divergence at flat index %d: %v != %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestDistributedSpMMMatchesInProcess is the tentpole acceptance
// gate: a REAL multi-process run — coordinator here, two separate
// worker OS processes over TCP — produces bits identical to the
// in-process PartitionedSpMM.
func TestDistributedSpMMMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	g, b, p := distFixture(t)
	want, _, err := PartitionedSpMM(g, b, 128, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr1, _ := spawnWorkerProcess(t, 0)
	addr2, _ := spawnWorkerProcess(t, 0)
	cl, err := Dial([]string{addr1, addr2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.DistributedSpMM(g, b, 128, p, core.Options{}, DistConfig{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, want, got, "multi-process vs in-process")
}

// TestDistributedKillWorkerRecovery kills one worker process
// mid-job (it SIGKILLs itself at the start of its first Compute —
// after accepting the job, before replying) and requires the
// recovered result to be byte-identical to a fault-free run: the
// check.FaultEquivalence standard held across real process death.
func TestDistributedKillWorkerRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	g, b, p := distFixture(t)
	// maxN 32 yields ~19 partitions, so the consistent-hash ring routes
	// work to BOTH workers with near certainty — the victim is
	// guaranteed a job to die on.
	want, _, err := PartitionedSpMM(g, b, 32, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addrVictim, victim := spawnWorkerProcess(t, 1) // dies on first Compute
	addrSurvivor, _ := spawnWorkerProcess(t, 0)
	cl, err := Dial([]string{addrVictim, addrSurvivor})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.DistributedSpMM(g, b, 32, p, core.Options{}, DistConfig{
		Retry: resil.RetryPolicy{Max: 4, Backoff: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, want, got, "kill -9 recovery")
	if live := cl.LiveWorkers(); len(live) != 1 {
		// 2 live would mean the ring routed nothing to the victim (and
		// Wait below would hang on a healthy process) — fail loudly.
		t.Fatalf("cluster should have exactly 1 live worker, has %v", live)
	}
	// The victim really died by signal, mid-service.
	state, err := victim.Process.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if state.Success() {
		t.Fatal("victim worker exited cleanly; expected SIGKILL death")
	}
}

// TestDistributedAllWorkersDead: when every worker dies, the
// coordinator falls back to local computation and still produces the
// exact fault-free bits.
func TestDistributedAllWorkersDead(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	g, b, p := distFixture(t)
	want, _, err := PartitionedSpMM(g, b, 128, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr, worker := spawnWorkerProcess(t, 0)
	cl, err := Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	worker.Process.Kill()
	worker.Wait()
	got, err := cl.DistributedSpMM(g, b, 128, p, core.Options{}, DistConfig{
		Retry: resil.RetryPolicy{Max: 2, Backoff: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, want, got, "all-dead local fallback")
}

// TestLoopbackWorkerProtocol exercises the RPC protocol details on
// in-process loopback workers: load echo, stale-state rejection,
// compute-before-load rejection, and transfer checksums.
func TestLoopbackWorkerProtocol(t *testing.T) {
	g, b, p := distFixture(t)
	addr, stop, err := StartLocalWorker(WorkerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cl, err := Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Compute before load is a typed refusal, not a crash.
	args := &ComputeArgs{Part: []int{0, 1}, V: p.V, N: p.N, M: p.M}
	var reply ComputeReply
	if err := cl.call(0, "Worker.Compute", args, &reply); err == nil {
		t.Fatal("compute before load accepted")
	}
	if len(cl.LiveWorkers()) != 1 {
		t.Fatal("application-level refusal must not mark the worker dead")
	}

	enc, err := shard.EncodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	load := &LoadArgs{
		GraphShard: enc, GraphSum: shard.ChecksumBytes(enc),
		BRows: b.Rows, BCols: b.Cols, BData: b.Data, BSum: resil.Checksum(b.Data),
	}
	var lr LoadReply
	if err := cl.call(0, "Worker.Load", load, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.N != g.N() || lr.GraphSum != load.GraphSum || lr.BSum != load.BSum {
		t.Fatalf("load echo mismatch: %+v", lr)
	}

	// A corrupted graph transfer is rejected by checksum before decode.
	badLoad := *load
	badLoad.GraphShard = append([]byte(nil), enc...)
	badLoad.GraphShard[len(enc)/2] ^= 0x10
	if err := cl.call(0, "Worker.Load", &badLoad, &lr); err == nil {
		t.Fatal("corrupted graph transfer accepted")
	}

	// Stale checksums (job against different state) are refused.
	staleArgs := &ComputeArgs{Part: []int{0, 1}, V: p.V, N: p.N, M: p.M, GraphSum: 1, BSum: 2}
	if err := cl.call(0, "Worker.Compute", staleArgs, &reply); err == nil {
		t.Fatal("stale-state compute accepted")
	}

	// A well-formed job round-trips with a valid transfer checksum.
	goodArgs := &ComputeArgs{
		Part: []int{0, 1, 2, 3}, V: p.V, N: p.N, M: p.M,
		GraphSum: load.GraphSum, BSum: load.BSum,
	}
	if err := cl.call(0, "Worker.Compute", goodArgs, &reply); err != nil {
		t.Fatal(err)
	}
	if got := resil.Checksum(reply.Data); got != reply.Checksum {
		t.Fatalf("transfer checksum: got %x want %x", got, reply.Checksum)
	}
	if err := verifyRowCoverage(goodArgs.Part, &reply, b.Cols); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerRejectsMalformedArgs calls the service methods directly:
// net/rpc does not recover a panic in a service method, so a malformed
// argument must come back as an error, never a panic that kills the
// worker process.
func TestWorkerRejectsMalformedArgs(t *testing.T) {
	g := graph.Grid2D(2, 2)
	enc, err := shard.EncodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{Workers: 1})
	load := func(rows, cols int, data []float32) error {
		args := &LoadArgs{
			GraphShard: enc, GraphSum: shard.ChecksumBytes(enc),
			BRows: rows, BCols: cols, BData: data, BSum: resil.Checksum(data),
		}
		return w.Load(args, &LoadReply{})
	}
	// 4 * (2^62 + 1) wraps to 4: a multiplying shape check accepts it.
	for _, cols := range []int{1<<62 + 1, -1} {
		if err := load(4, cols, make([]float32, 4)); err == nil {
			t.Errorf("BCols=%d with 4 values accepted", cols)
		}
	}
	b := make([]float32, 8)
	if err := load(4, 2, b); err != nil {
		t.Fatal(err)
	}
	p := pattern.NM(2, 4)
	for _, part := range [][]int{{0, 4}, {-1, 1}, {0, 1, 1}} {
		args := &ComputeArgs{
			Part: part, V: p.V, N: p.N, M: p.M,
			GraphSum: shard.ChecksumBytes(enc), BSum: resil.Checksum(b),
		}
		if err := w.Compute(args, &ComputeReply{}); err == nil {
			t.Errorf("partition %v accepted", part)
		}
	}
}

// TestLoopbackDistributedMatches: the full coordinator path over
// loopback workers (the oracle configuration) matches in-process
// bits. Cheap enough to run under -short and race.
func TestLoopbackDistributedMatches(t *testing.T) {
	g, b, p := distFixture(t)
	want, _, err := PartitionedSpMM(g, b, 128, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, stop, err := StartLocalWorker(WorkerConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		addrs = append(addrs, addr)
	}
	cl, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.DistributedSpMM(g, b, 128, p, core.Options{}, DistConfig{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, want, got, "loopback cluster vs in-process")
}

// corruptFirstReply is a Worker whose first Compute reply has one bit
// of its payload flipped after the worker checksummed it: a transfer
// corrupted in flight.
type corruptFirstReply struct {
	*Worker
	mu      sync.Mutex
	flipped bool
}

func (w *corruptFirstReply) Compute(args *ComputeArgs, reply *ComputeReply) error {
	if err := w.Worker.Compute(args, reply); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.flipped {
		w.flipped = true
		reply.Data[0] = math.Float32frombits(math.Float32bits(reply.Data[0]) ^ 1)
	}
	return nil
}

// TestDistributedRejectsCorruptedReply: the coordinator re-verifies
// every reply's checksum, rejects the corrupted one and retries the
// partition, so the result is PartitionedSpMM's bits.
func TestDistributedRejectsCorruptedReply(t *testing.T) {
	g, b, p := distFixture(t)
	want, _, err := PartitionedSpMM(g, b, 128, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", &corruptFirstReply{Worker: NewWorker(WorkerConfig{Workers: 1})}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	cl, err := Dial([]string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reg := obs.NewRegistry()
	got, err := cl.DistributedSpMM(g, b, 128, p, core.Options{}, DistConfig{
		Retry: resil.RetryPolicy{Backoff: -1}, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, want, got, "corrupted reply retried")
	v := reg.Snapshot().Volatile
	if v["dist/checksum_reject"] < 1 {
		t.Fatalf("dist/checksum_reject = %d, want >= 1", v["dist/checksum_reject"])
	}
	if v["dist/local_fallback"] != 0 {
		t.Fatalf("dist/local_fallback = %d: the retry should have recovered remotely", v["dist/local_fallback"])
	}
}

// TestRingConsistency pins the consistent-hash properties the
// recovery path depends on: deterministic candidate order, full
// worker coverage, and locality — removing one worker reassigns ONLY
// the partitions that worker owned.
func TestRingConsistency(t *testing.T) {
	addrs := []string{"a:1", "b:2", "c:3", "d:4"}
	r := newRing(addrs)
	assign := func(r *ring, keys int, skip int) map[int]int {
		out := make(map[int]int)
		for k := 0; k < keys; k++ {
			for _, cand := range r.candidates(fmt.Sprintf("part/%d", k)) {
				if cand != skip {
					out[k] = cand
					break
				}
			}
		}
		return out
	}
	before := assign(r, 200, -1)
	covered := make(map[int]bool)
	for _, w := range before {
		covered[w] = true
	}
	if len(covered) != len(addrs) {
		t.Fatalf("ring covers %d of %d workers over 200 keys", len(covered), len(addrs))
	}
	// Candidates are a permutation of all workers, deterministically.
	c1 := r.candidates("part/7")
	c2 := r.candidates("part/7")
	if len(c1) != len(addrs) {
		t.Fatalf("candidates %v must list every worker", c1)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("candidate order not deterministic: %v vs %v", c1, c2)
		}
	}
	// Kill worker 2: only its keys move.
	after := assign(r, 200, 2)
	for k, w := range before {
		if w == 2 {
			continue
		}
		if after[k] != w {
			t.Fatalf("key %d moved %d -> %d though worker %d stayed live", k, w, after[k], w)
		}
	}
}

// TestVerifyRowCoverage rejects malformed replies before they can
// scatter into the output.
func TestVerifyRowCoverage(t *testing.T) {
	part := []int{4, 5, 6}
	ok := &ComputeReply{Rows: []int{6, 4, 5}, Data: make([]float32, 9), Cols: 3}
	if err := verifyRowCoverage(part, ok, 3); err != nil {
		t.Fatal(err)
	}
	bad := []*ComputeReply{
		{Rows: []int{4, 5}, Data: make([]float32, 6), Cols: 3},    // missing row
		{Rows: []int{4, 5, 7}, Data: make([]float32, 9), Cols: 3}, // foreign row
		{Rows: []int{4, 5, 5}, Data: make([]float32, 9), Cols: 3}, // duplicate row
		{Rows: []int{4, 5, 6}, Data: make([]float32, 8), Cols: 3}, // short payload
		{Rows: []int{4, 5, 6}, Data: make([]float32, 9), Cols: 2}, // wrong width
	}
	for i, r := range bad {
		if err := verifyRowCoverage(part, r, 3); err == nil {
			t.Fatalf("malformed reply %d accepted", i)
		}
	}
}

// TestDialNoWorkers: an empty or fully-unreachable address set is a
// typed error.
func TestDialNoWorkers(t *testing.T) {
	if _, err := Dial(nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("empty dial: %v", err)
	}
	if _, err := Dial([]string{"127.0.0.1:1"}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("unreachable dial: %v", err)
	}
}
