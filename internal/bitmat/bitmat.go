// Package bitmat provides a dense bit-matrix representation of graph
// adjacency structure, the central data structure of the SOGRE
// reordering engine.
//
// The paper's CUDA implementation (Listing 1) encodes every M-element
// segment vector of the adjacency matrix as a binary string and
// manipulates it with GPU bit intrinsics and intra-warp shuffles. This
// package is the CPU analog: rows are stored as packed uint64 words,
// per-window popcounts use math/bits, and the row-parallel operations
// are fanned out over a goroutine worker pool (see parallel.go).
package bitmat

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Matrix is a dense n-by-n bit matrix. Bit (i, j) set means there is an
// edge between vertex i and vertex j (a nonzero A[i][j]).
//
// The zero value is an empty 0x0 matrix; use New to allocate.
type Matrix struct {
	n     int
	words int      // words per row
	rows  []uint64 // n*words, row-major
}

// New returns an n-by-n all-zero bit matrix.
func New(n int) *Matrix {
	if n < 0 {
		panic("bitmat: negative dimension")
	}
	w := (n + wordBits - 1) / wordBits
	return &Matrix{n: n, words: w, rows: make([]uint64, n*w)}
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// WordsPerRow returns the number of uint64 words backing each row.
func (m *Matrix) WordsPerRow() int { return m.words }

// Row returns the packed words of row i. The slice aliases the matrix
// storage; callers must not grow it.
func (m *Matrix) Row(i int) []uint64 {
	return m.rows[i*m.words : (i+1)*m.words : (i+1)*m.words]
}

// Set sets bit (i, j).
func (m *Matrix) Set(i, j int) {
	m.rows[i*m.words+j/wordBits] |= 1 << uint(j%wordBits)
}

// Clear clears bit (i, j).
func (m *Matrix) Clear(i, j int) {
	m.rows[i*m.words+j/wordBits] &^= 1 << uint(j%wordBits)
}

// Get reports whether bit (i, j) is set.
func (m *Matrix) Get(i, j int) bool {
	return m.rows[i*m.words+j/wordBits]&(1<<uint(j%wordBits)) != 0
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{n: m.n, words: m.words, rows: make([]uint64, len(m.rows))}
	copy(c.rows, m.rows)
	return c
}

// NNZ returns the total number of set bits.
func (m *Matrix) NNZ() int {
	total := 0
	for _, w := range m.rows {
		total += bits.OnesCount64(w)
	}
	return total
}

// RowNNZ returns the number of set bits in row i.
func (m *Matrix) RowNNZ(i int) int {
	total := 0
	for _, w := range m.Row(i) {
		total += bits.OnesCount64(w)
	}
	return total
}

// AppendRow appends the column indices of row i's set bits to dst in
// ascending order and returns the extended slice. It walks the row
// word by word and skips zero words, so a sparse row costs its word
// count plus its population, not n Get calls.
func (m *Matrix) AppendRow(dst []int32, i int) []int32 {
	for wi, w := range m.Row(i) {
		for w != 0 {
			dst = append(dst, int32(wi*wordBits+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Density returns NNZ / n².
func (m *Matrix) Density() float64 {
	if m.n == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.n) * float64(m.n))
}

// IsSymmetric reports whether the matrix equals its transpose.
func (m *Matrix) IsSymmetric() bool {
	for i := 0; i < m.n; i++ {
		row := m.Row(i)
		for wi, w := range row {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				j := wi*wordBits + b
				if j > i && !m.Get(j, i) {
					return false
				}
			}
		}
	}
	return true
}

// Segment extracts the M-bit segment vector of row i starting at column
// seg*M, returned as a uint64 with the segment's leftmost matrix column
// in bit M-1 (most significant) and the rightmost column in bit 0. This
// matches the paper's binary-string encoding (Listing 1), where the
// string is built by left-shifting column values in order.
//
// M must be a power of two with 1 <= M <= 64. Columns past n read as
// zero.
func (m *Matrix) Segment(i, seg, M int) uint64 {
	start := seg * M
	var v uint64
	// Fast path: segment fully inside one word and aligned.
	if M <= wordBits && start%wordBits+M <= wordBits {
		w := m.rows[i*m.words+start/wordBits]
		raw := (w >> uint(start%wordBits)) & maskLow(M)
		return reverseLow(raw, M)
	}
	for c := 0; c < M; c++ {
		col := start + c
		v <<= 1
		if col < m.n && m.Get(i, col) {
			v |= 1
		}
	}
	return v
}

// SegmentPop returns the popcount of the M-bit segment vector of row i
// at segment index seg (number of nonzeros in that window).
func (m *Matrix) SegmentPop(i, seg, M int) int {
	start := seg * M
	if M <= wordBits && start%wordBits+M <= wordBits {
		w := m.rows[i*m.words+start/wordBits]
		return bits.OnesCount64((w >> uint(start%wordBits)) & maskLow(M))
	}
	count := 0
	for c := 0; c < M && start+c < m.n; c++ {
		if m.Get(i, start+c) {
			count++
		}
	}
	return count
}

// NumSegments returns the number of M-column segments: ceil(n / M).
func (m *Matrix) NumSegments(M int) int {
	return (m.n + M - 1) / M
}

// SwapSym swaps vertices u and v: rows u,v and columns u,v are
// exchanged, preserving symmetry. This is the adjacency-matrix
// materialization of renumbering two graph vertices (Figure 1 of the
// paper).
func (m *Matrix) SwapSym(u, v int) {
	if u == v {
		return
	}
	// Swap rows.
	ru, rv := m.Row(u), m.Row(v)
	for k := range ru {
		ru[k], rv[k] = rv[k], ru[k]
	}
	// Swap columns u and v in every row.
	uw, ub := u/wordBits, uint(u%wordBits)
	vw, vb := v/wordBits, uint(v%wordBits)
	for i := 0; i < m.n; i++ {
		base := i * m.words
		bu := (m.rows[base+uw] >> ub) & 1
		bv := (m.rows[base+vw] >> vb) & 1
		if bu != bv {
			m.rows[base+uw] ^= 1 << ub
			m.rows[base+vw] ^= 1 << vb
		}
	}
}

// Permute returns a new matrix B with B[i][j] = A[perm[i]][perm[j]]:
// position i of the new ordering is occupied by old vertex perm[i].
// This is a symmetric (graph) permutation; it never changes the graph,
// only the numbering of its vertices.
func (m *Matrix) Permute(perm []int) *Matrix {
	if len(perm) != m.n {
		panic(fmt.Sprintf("bitmat: permutation length %d != n %d", len(perm), m.n))
	}
	out := New(m.n)
	// inv[old] = new position of old vertex.
	inv := make([]int, m.n)
	for newPos, old := range perm {
		inv[old] = newPos
	}
	for newI := 0; newI < m.n; newI++ {
		oldRow := m.Row(perm[newI])
		outRow := out.Row(newI)
		for wi, w := range oldRow {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				oldJ := wi*wordBits + b
				newJ := inv[oldJ]
				outRow[newJ/wordBits] |= 1 << uint(newJ%wordBits)
			}
		}
	}
	return out
}

// Equal reports whether the two matrices have identical dimensions and
// bits.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n {
		return false
	}
	for k := range m.rows {
		if m.rows[k] != o.rows[k] {
			return false
		}
	}
	return true
}

// ColumnsUsed reports, for the V-by-M tile whose top-left corner is
// (rowStart, seg*M), the bitmask of tile-local columns (bit c set means
// tile column c, i.e. matrix column seg*M+c, contains a nonzero in rows
// [rowStart, rowStart+V)). Rows past n are treated as zero.
func (m *Matrix) ColumnsUsed(rowStart, seg, M, V int) uint64 {
	start := seg * M
	var used uint64
	if M <= wordBits && start%wordBits+M <= wordBits {
		shift := uint(start % wordBits)
		w := start / wordBits
		mask := maskLow(M)
		for r := rowStart; r < rowStart+V && r < m.n; r++ {
			used |= (m.rows[r*m.words+w] >> shift) & mask
		}
		return used
	}
	for r := rowStart; r < rowStart+V && r < m.n; r++ {
		for c := 0; c < M && start+c < m.n; c++ {
			if m.Get(r, start+c) {
				used |= 1 << uint(c)
			}
		}
	}
	return used
}

// String renders the matrix as rows of '0'/'1' characters, useful in
// tests and examples. Large matrices render a summary instead.
func (m *Matrix) String() string {
	if m.n > 64 {
		return fmt.Sprintf("bitmat.Matrix(n=%d, nnz=%d)", m.n, m.NNZ())
	}
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if m.Get(i, j) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FromRows builds a matrix from string rows of '0'/'1' (whitespace
// ignored). All rows must have length n equal to the number of rows.
func FromRows(rows ...string) (*Matrix, error) {
	n := len(rows)
	m := New(n)
	for i, r := range rows {
		r = strings.Map(func(c rune) rune {
			if c == ' ' || c == '\t' {
				return -1
			}
			return c
		}, r)
		if len(r) != n {
			return nil, fmt.Errorf("bitmat: row %d has %d columns, want %d", i, len(r), n)
		}
		for j, c := range r {
			switch c {
			case '1':
				m.Set(i, j)
			case '0':
			default:
				return nil, fmt.Errorf("bitmat: row %d has invalid character %q", i, c)
			}
		}
	}
	return m, nil
}

// maskLow returns a mask of the k low bits (k in [0,64]).
func maskLow(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(k)) - 1
}

// reverseLow reverses the low k bits of v (and clears the rest).
func reverseLow(v uint64, k int) uint64 {
	return bits.Reverse64(v) >> uint(64-k)
}
