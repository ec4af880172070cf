package distributed

import (
	"fmt"
	"net"
	"net/rpc"
	"os"
	"sync"
	"syscall"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/resil"
	"repro/internal/shard"
)

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// Workers sizes the worker's local execution pool (core.Options
	// semantics: 0 = GOMAXPROCS, 1 = serial). Bit-identical either way.
	Workers int
	// CrashAfterJobs, when > 0, makes the worker SIGKILL its own
	// process at the START of its CrashAfterJobs-th Compute job — a
	// deterministic stand-in for `kill -9` that dies mid-job, after
	// accepting work and before replying, which is the worst spot for
	// the coordinator. Used by the fault-recovery gate.
	CrashAfterJobs int
}

// Worker is the RPC service a worker process exposes. It caches one
// (graph, B) operand pair keyed by checksum and computes partitions
// against it via the same pure computePartition the in-process path
// uses — which is the whole bit-identity argument: process boundaries
// move bytes, never change the computation.
type Worker struct {
	cfg WorkerConfig

	mu       sync.Mutex
	g        *graph.Graph
	b        *dense.Matrix
	graphSum uint64
	bSum     uint64
	jobs     int
}

// NewWorker returns a worker service with no loaded state.
func NewWorker(cfg WorkerConfig) *Worker { return &Worker{cfg: cfg} }

// Load verifies and installs the operands. Verification happens
// before installation: a corrupted transfer leaves previous state
// intact.
func (w *Worker) Load(args *LoadArgs, reply *LoadReply) error {
	if got := shard.ChecksumBytes(args.GraphShard); got != args.GraphSum {
		return &resil.ChecksumError{Site: "worker/load/graph", Want: args.GraphSum, Got: got}
	}
	if got := resil.Checksum(args.BData); got != args.BSum {
		return &resil.ChecksumError{Site: "worker/load/b", Want: args.BSum, Got: got}
	}
	g, err := shard.DecodeGraph(args.GraphShard)
	if err != nil {
		return err
	}
	if args.BRows != g.N() || !shapeHolds(args.BRows, args.BCols, len(args.BData)) {
		return fmt.Errorf("distributed: B is %dx%d (%d values) against graph n=%d",
			args.BRows, args.BCols, len(args.BData), g.N())
	}
	w.mu.Lock()
	w.g = g
	w.b = dense.FromData(args.BRows, args.BCols, args.BData)
	w.graphSum = args.GraphSum
	w.bSum = args.BSum
	w.mu.Unlock()
	reply.N = g.N()
	reply.GraphSum = args.GraphSum
	reply.BSum = args.BSum
	return nil
}

// Compute runs one partition's diagonal-block pipeline and returns
// the partial result with a pre-transfer checksum.
func (w *Worker) Compute(args *ComputeArgs, reply *ComputeReply) error {
	w.mu.Lock()
	g, b := w.g, w.b
	if g == nil {
		w.mu.Unlock()
		return ErrNotLoaded
	}
	if w.graphSum != args.GraphSum || w.bSum != args.BSum {
		w.mu.Unlock()
		return ErrStale
	}
	w.jobs++
	job := w.jobs
	w.mu.Unlock()

	if w.cfg.CrashAfterJobs > 0 && job >= w.cfg.CrashAfterJobs {
		// Die the way an OOM-killed or power-cut worker dies: no reply,
		// no cleanup, connection reset. The coordinator must recover to
		// a bit-identical result.
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}

	p := pattern.VNM{V: args.V, N: args.N, M: args.M}
	if err := p.Validate(); err != nil {
		return err
	}
	opt := core.Options{
		MaxIter:       args.Opt.MaxIter,
		Stage1MaxIter: args.Opt.Stage1MaxIter,
		Stage2MaxIter: args.Opt.Stage2MaxIter,
		Workers:       workersOrSerial(args.Opt.Workers, w.cfg.Workers),
	}
	if err := checkPart(args.Part, g.N()); err != nil {
		return err
	}
	out, err := computePartition(g, b, args.Part, p, opt)
	if err != nil {
		return err
	}
	reply.Rows = out.rows
	reply.Cols = b.Cols
	reply.Data = out.localC.Data
	reply.Checksum = resil.Checksum(reply.Data)
	return nil
}

// shapeHolds reports whether values floats fill a rows x cols matrix.
// It divides rather than multiplies: a product of wire-supplied sizes
// can overflow and match a short payload.
func shapeHolds(rows, cols, values int) bool {
	if rows < 0 || cols < 0 {
		return false
	}
	if rows == 0 {
		return values == 0
	}
	return values%rows == 0 && values/rows == cols
}

// checkPart rejects a partition naming a vertex outside [0, n) or the
// same vertex twice; either would panic or corrupt the induced
// subgraph, and net/rpc does not recover a service method's panic.
func checkPart(part []int, n int) error {
	seen := make([]bool, n)
	for _, v := range part {
		if v < 0 || v >= n {
			return fmt.Errorf("distributed: partition vertex %d outside [0, %d)", v, n)
		}
		if seen[v] {
			return fmt.Errorf("distributed: partition names vertex %d twice", v)
		}
		seen[v] = true
	}
	return nil
}

// workersOrSerial resolves the pool size: the job's explicit setting
// wins, then the worker's configured default.
func workersOrSerial(job, def int) int {
	if job != 0 {
		return job
	}
	return def
}

// Ping reports liveness and job count.
func (w *Worker) Ping(args *PingArgs, reply *PingReply) error {
	w.mu.Lock()
	reply.Jobs = w.jobs
	w.mu.Unlock()
	reply.OK = true
	return nil
}

// ServeWorker registers the worker service on a fresh rpc server and
// accepts connections on ln until the listener closes. Each
// connection is served on its own goroutine (net/rpc semantics), so a
// coordinator can hold one connection while a prober holds another.
func ServeWorker(ln net.Listener, cfg WorkerConfig) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", NewWorker(cfg)); err != nil {
		return err
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go srv.ServeConn(conn)
	}
}

// StartLocalWorker runs a worker on an ephemeral loopback port inside
// this process — the loopback oracle configuration: real RPC, real
// serialization, real sockets, no process boundary. Tests and the
// check oracle use it to isolate the protocol from process management.
// Returns the worker's address and a stop function.
func StartLocalWorker(cfg WorkerConfig) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go ServeWorker(ln, cfg)
	return ln.Addr().String(), func() { ln.Close() }, nil
}
