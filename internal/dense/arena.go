package dense

// Arena is a reusable flat float32 allocation for kernel outputs and
// scratch operands: repeated SpMM dispatches through the execution
// planner (internal/plan) draw their output matrices from one arena
// instead of paying a fresh multi-megabyte allocation (and the GC
// pressure behind it) per call.
//
// An arena hands out matrices backed by its single grown-once buffer,
// so at most one matrix per arena is live at a time: the next Matrix
// call reuses (and rewrites) the same storage. Callers that need the
// result to survive the next dispatch must Clone it first. The zero
// Arena is ready to use; an Arena is not safe for concurrent use.
type Arena struct {
	buf []float32
}

// Matrix returns a rows x cols matrix backed by the arena, grown if
// needed. The contents are NOT zeroed — every spmm Into-kernel zeroes
// its output before accumulating, so pre-zeroing here would double the
// memset on the hot dispatch path.
func (ar *Arena) Matrix(rows, cols int) *Matrix {
	n := rows * cols
	if cap(ar.buf) < n {
		ar.buf = make([]float32, n)
	}
	return FromData(rows, cols, ar.buf[:n])
}
