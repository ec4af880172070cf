package shard

// Typed section codecs over the raw container: graphs (CSR
// adjacency) and permutations. Every decoder is total — payload
// lengths are validated against the counts a section claims BEFORE any
// count sizes an allocation, and structural invariants (monotonic row
// pointers, in-range column ids, bijective permutations) are
// re-checked on load, so a decoded object is safe to hand to kernels
// without further vetting.

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// graphFlagWeighted marks a graph section carrying a weights array.
const graphFlagWeighted = 1

// -- payload builders --

// AddGraph appends the graph's CSR arrays as a "graph" section.
func (w *Writer) AddGraph(g *graph.Graph) error {
	rowPtr, colIdx, weights := g.CSR()
	return w.AddRaw(TagGraph, encodeCSRPayload(g.N(), rowPtr, colIdx, weights))
}

func encodeCSRPayload(n int, rowPtr, colIdx []int32, val []float32) []byte {
	nnz := len(colIdx)
	flags := uint64(0)
	size := 24 + 4*(n+1) + 4*nnz
	if val != nil {
		flags |= graphFlagWeighted
		size += 4 * nnz
	}
	buf := make([]byte, size)
	putU64(buf, uint64(n))
	putU64(buf[8:], uint64(nnz))
	putU64(buf[16:], flags)
	off := 24
	off = putI32s(buf, off, rowPtr)
	off = putI32s(buf, off, colIdx)
	if val != nil {
		putF32s(buf, off, val)
	}
	return buf
}

// AddPerm appends a vertex permutation as a "perm" section.
func (w *Writer) AddPerm(perm []int) error {
	buf := make([]byte, 8+8*len(perm))
	putU64(buf, uint64(len(perm)))
	for i, p := range perm {
		putU64(buf[8+8*i:], uint64(int64(p)))
	}
	return w.AddRaw(TagPerm, buf)
}

// -- typed loaders --

// Graph decodes the idx-th "graph" section and re-validates its CSR
// structure (monotonic row pointers, in-range sorted columns).
func (f *File) Graph(idx int) (*graph.Graph, error) {
	buf, err := f.Raw(TagGraph, idx)
	if err != nil {
		return nil, err
	}
	n, rowPtr, colIdx, val, err := decodeCSRPayload(buf)
	if err != nil {
		return nil, err
	}
	g, err := graph.NewFromCSR(n, rowPtr, colIdx, val)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return g, nil
}

func decodeCSRPayload(buf []byte) (n int, rowPtr, colIdx []int32, val []float32, err error) {
	if len(buf) < 24 {
		return 0, nil, nil, nil, fmt.Errorf("%w: graph payload %d bytes", ErrCorrupt, len(buf))
	}
	n64 := getU64(buf)
	nnz64 := getU64(buf[8:])
	flags := getU64(buf[16:])
	if n64 > math.MaxInt32 || nnz64 > math.MaxInt32 {
		return 0, nil, nil, nil, fmt.Errorf("%w: graph claims n=%d nnz=%d past int32", ErrCorrupt, n64, nnz64)
	}
	n = int(n64)
	nnz := int(nnz64)
	want := 24 + 4*(n+1) + 4*nnz
	if flags&graphFlagWeighted != 0 {
		want += 4 * nnz
	}
	if len(buf) != want {
		return 0, nil, nil, nil, fmt.Errorf("%w: graph payload %d bytes, want %d for n=%d nnz=%d",
			ErrCorrupt, len(buf), want, n, nnz)
	}
	off := 24
	rowPtr, off = getI32s(buf, off, n+1)
	colIdx, off = getI32s(buf, off, nnz)
	if flags&graphFlagWeighted != 0 {
		val, _ = getF32s(buf, off, nnz)
	}
	if rowPtr[0] != 0 || int(rowPtr[n]) != nnz {
		return 0, nil, nil, nil, fmt.Errorf("%w: graph rowPtr ends [%d..%d], want [0..%d]",
			ErrCorrupt, rowPtr[0], rowPtr[n], nnz)
	}
	for i := 0; i < n; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return 0, nil, nil, nil, fmt.Errorf("%w: graph rowPtr not monotonic at %d", ErrCorrupt, i)
		}
	}
	for i, c := range colIdx {
		if c < 0 || int(c) >= n {
			return 0, nil, nil, nil, fmt.Errorf("%w: graph column %d out of range at %d", ErrCorrupt, c, i)
		}
	}
	return n, rowPtr, colIdx, val, nil
}

// Perm decodes the idx-th "perm" section and verifies bijectivity.
func (f *File) Perm(idx int) ([]int, error) {
	buf, err := f.Raw(TagPerm, idx)
	if err != nil {
		return nil, err
	}
	if len(buf) < 8 {
		return nil, fmt.Errorf("%w: perm payload %d bytes", ErrCorrupt, len(buf))
	}
	n64 := getU64(buf)
	if n64 > math.MaxInt32 {
		return nil, fmt.Errorf("%w: perm claims %d entries", ErrCorrupt, n64)
	}
	n := int(n64)
	if len(buf) != 8+8*n {
		return nil, fmt.Errorf("%w: perm payload %d bytes, want %d", ErrCorrupt, len(buf), 8+8*n)
	}
	perm := make([]int, n)
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		p := int64(getU64(buf[8+8*i:]))
		if p < 0 || p >= int64(n) || seen[p] {
			return nil, fmt.Errorf("%w: perm entry %d = %d not a bijection on [0,%d)", ErrCorrupt, i, p, n)
		}
		seen[p] = true
		perm[i] = int(p)
	}
	return perm, nil
}

// -- single-object file conveniences --

// WriteGraphFile serializes one graph to path.
func WriteGraphFile(path string, g *graph.Graph) error {
	w := NewWriter()
	if err := w.AddGraph(g); err != nil {
		return err
	}
	return WriteFile(path, w)
}

// ReadGraphFile loads the first graph section of the shard file at
// path.
func ReadGraphFile(path string) (*graph.Graph, error) {
	f, closeFn, err := OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer closeFn()
	return f.Graph(0)
}

// EncodeGraph serializes one graph to an in-memory sogre-shard/v1
// encoding — the wire form the distributed layer ships to workers.
func EncodeGraph(g *graph.Graph) ([]byte, error) {
	w := NewWriter()
	if err := w.AddGraph(g); err != nil {
		return nil, err
	}
	return w.Encode(), nil
}

// DecodeGraph loads the first graph from an in-memory encoding.
func DecodeGraph(data []byte) (*graph.Graph, error) {
	f, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return f.Graph(0)
}

// -- primitive array packing --

func putI32s(buf []byte, off int, vals []int32) int {
	for _, v := range vals {
		putU32(buf[off:], uint32(v))
		off += 4
	}
	return off
}

func putF32s(buf []byte, off int, vals []float32) int {
	for _, v := range vals {
		putU32(buf[off:], math.Float32bits(v))
		off += 4
	}
	return off
}

func getI32s(buf []byte, off, n int) ([]int32, int) {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(getU32(buf[off:]))
		off += 4
	}
	return out, off
}

func getF32s(buf []byte, off, n int) ([]float32, int) {
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(getU32(buf[off:]))
		off += 4
	}
	return out, off
}
