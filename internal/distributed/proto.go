package distributed

// RPC wire protocol between the SpMM coordinator and worker
// processes (net/rpc over TCP, gob-encoded). The protocol is
// deliberately value-only: a worker receives the graph as a
// sogre-shard/v1 encoding plus the dense operand, caches both keyed
// by checksum, and computes partitions on request. Every payload that
// crosses the wire carries an integrity tag — shard.ChecksumBytes for
// byte payloads, resil.Checksum for float32 payloads — computed at
// the source and re-verified at the destination, so a corrupted
// transfer surfaces as a typed mismatch instead of wrong bits in the
// output (DESIGN.md §10's transfer-integrity rule, now across real
// process boundaries).

import (
	"encoding/binary"
	"fmt"
	"math"
)

// WireOptions carries the reorder knobs that make sense across a
// process boundary (core.Options minus in-process handles like the
// scheduler pool and the observability registry — workers run their
// own). Zero values mean the core defaults.
type WireOptions struct {
	MaxIter       int
	Stage1MaxIter int
	Stage2MaxIter int
	Workers       int
}

// LoadArgs ships the operands to a worker. GraphShard is a
// sogre-shard/v1 encoding (shard.EncodeGraph); BData is the dense
// operand row-major.
type LoadArgs struct {
	GraphShard []byte
	GraphSum   uint64 // shard.ChecksumBytes(GraphShard)
	BRows      int
	BCols      int
	BData      Floats
	BSum       uint64 // resil.Checksum(BData)
}

// LoadReply echoes the checksums of the state the worker now holds,
// so the coordinator can confirm the load landed intact.
type LoadReply struct {
	N        int
	GraphSum uint64
	BSum     uint64
}

// ComputeArgs asks a worker for one partition's diagonal-block
// contribution. The checksums name the (graph, B) state the job is
// against; a worker holding different state rejects the job instead
// of silently computing on the wrong operands.
type ComputeArgs struct {
	Part     []int
	V, N, M  int
	Opt      WireOptions
	GraphSum uint64
	BSum     uint64
}

// ComputeReply carries the partition's rows back: Rows[j] is the
// global target row of Data's j-th row (BCols wide). Checksum is
// resil.Checksum(Data) computed worker-side before transfer.
type ComputeReply struct {
	Rows     []int
	Data     Floats
	Cols     int
	Checksum uint64
}

// Floats is a float32 payload that crosses the wire as one byte string
// of little-endian IEEE-754 bit patterns, 4 bytes per element. gob's
// own []float32 encoding writes each element as a byte-reversed
// float64 with a length prefix, one call per element; this encoding is
// a single copy. Bit patterns travel unchanged, so NaN payloads, signed
// zeros and subnormals survive and resil.Checksum agrees on both ends.
type Floats []float32

// GobEncode implements gob.GobEncoder.
func (f Floats) GobEncode() ([]byte, error) {
	buf := make([]byte, 4*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return buf, nil
}

// GobDecode implements gob.GobDecoder. A byte string whose length is
// not a multiple of 4 is a decode error.
func (f *Floats) GobDecode(buf []byte) error {
	if len(buf)%4 != 0 {
		return fmt.Errorf("distributed: float payload of %d bytes is not a multiple of 4", len(buf))
	}
	out := make(Floats, len(buf)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	*f = out
	return nil
}

// PingArgs/PingReply implement the liveness probe.
type PingArgs struct{}

type PingReply struct {
	OK   bool
	Jobs int // Compute jobs served so far
}

// protoError is this file's typed constant error set.
type protoError string

func (e protoError) Error() string { return string(e) }

const (
	// ErrStale reports a Compute against state the worker doesn't hold.
	ErrStale = protoError("distributed: worker state does not match job checksums")
	// ErrNotLoaded reports a Compute before any Load.
	ErrNotLoaded = protoError("distributed: worker has no loaded operands")
	// ErrNoWorkers reports a cluster with no live workers left.
	ErrNoWorkers = protoError("distributed: no live workers")
)
