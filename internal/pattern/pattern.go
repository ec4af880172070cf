// Package pattern defines the N:M and V:N:M sparse patterns required
// by GPU Sparse Tensor Cores (SPTC) and the conformity metrics used
// throughout the paper: PScore (horizontal, segment-vector-level
// violations), MBScore (vertical, meta-block-level violations), and the
// improvement rate of a reordering.
//
// Terminology (paper Figure 2):
//
//   - A segment vector is an M-element row vector of the adjacency
//     matrix; the horizontal constraint allows at most N nonzeros in
//     it.
//   - A segment is the n-by-M column stripe holding all the segment
//     vectors of one column window.
//   - A meta-block is a V-by-M tile; the vertical constraint allows at
//     most K of its M columns to contain any nonzero (K = 4 on current
//     SPTC hardware).
//
// N:M is the special case V = 1, where the vertical constraint is
// implied whenever N <= K.
package pattern

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/bitmat"
	"repro/internal/sched"
)

// DefaultK is the SPTC hardware limit on the number of nonzero columns
// a V-by-M meta-block may use (paper Section 2: "4 by default").
const DefaultK = 4

// VNM describes a V:N:M sparse pattern. V is the meta-block height, N
// the maximum nonzeros per M-element segment vector, M the segment
// width, and K the maximum distinct nonzero columns per meta-block.
type VNM struct {
	V, N, M int
	K       int // 0 means DefaultK
}

// NM returns the basic N:M pattern (V = 1).
func NM(n, m int) VNM { return VNM{V: 1, N: n, M: m} }

// New returns the V:N:M pattern with the default hardware K.
func New(v, n, m int) VNM { return VNM{V: v, N: n, M: m} }

// EffK returns the effective vertical column limit.
func (p VNM) EffK() int {
	if p.K > 0 {
		return p.K
	}
	return DefaultK
}

// Validate reports whether the pattern parameters are meaningful for
// this implementation: 1 <= N <= M <= 64, V >= 1, M a power of two.
func (p VNM) Validate() error {
	switch {
	case p.M < 1 || p.M > 64:
		return fmt.Errorf("pattern: M = %d out of range [1, 64]", p.M)
	case p.M&(p.M-1) != 0:
		return fmt.Errorf("pattern: M = %d is not a power of two", p.M)
	case p.N < 1 || p.N > p.M:
		return fmt.Errorf("pattern: N = %d out of range [1, M=%d]", p.N, p.M)
	case p.V < 1:
		return fmt.Errorf("pattern: V = %d must be >= 1", p.V)
	case p.K < 0:
		return fmt.Errorf("pattern: K = %d must be >= 0", p.K)
	}
	return nil
}

// String renders the pattern in the paper's V:N:M notation (or N:M when
// V is 1).
func (p VNM) String() string {
	if p.V == 1 {
		return fmt.Sprintf("%d:%d", p.N, p.M)
	}
	return fmt.Sprintf("%d:%d:%d", p.V, p.N, p.M)
}

// Parse reads a pattern from its string notation: "N:M" (e.g. "2:4")
// or "V:N:M" (e.g. "16:2:16"). The parsed pattern is validated.
func Parse(s string) (VNM, error) {
	parts := strings.Split(s, ":")
	nums := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return VNM{}, fmt.Errorf("pattern: bad component %q in %q", p, s)
		}
		nums[i] = v
	}
	var p VNM
	switch len(nums) {
	case 2:
		p = NM(nums[0], nums[1])
	case 3:
		p = New(nums[0], nums[1], nums[2])
	default:
		return VNM{}, fmt.Errorf("pattern: %q is not N:M or V:N:M", s)
	}
	if err := p.Validate(); err != nil {
		return VNM{}, err
	}
	return p, nil
}

// VectorValid reports whether an M-bit segment vector satisfies the
// horizontal constraint (at most N nonzeros).
func (p VNM) VectorValid(segBits uint64) bool {
	return bits.OnesCount64(segBits) <= p.N
}

// PScore returns the number of segment vectors in the matrix violating
// the horizontal N:M constraint — F_p(phi) in the paper. Rows are
// scanned in parallel.
func PScore(m *bitmat.Matrix, p VNM) int {
	return PScoreOn(nil, m, p)
}

// PScoreOn computes PScore on an explicit execution pool — the handle
// the reordering engine uses to keep every scoring pass inside one
// bounded worker set. A nil pool selects the GOMAXPROCS-wide bitmat
// helper. The count is an exact integer reduction over disjoint row
// ranges, so every pool size returns the same value.
func PScoreOn(pool *sched.Pool, m *bitmat.Matrix, p VNM) int {
	body := func(lo, hi int) int {
		count := 0
		for i := lo; i < hi; i++ {
			count += overLanes(m.Row(i), p.M, p.N, nil)
		}
		return count
	}
	if pool == nil {
		return bitmat.ParallelReduceInt(m.N(), body)
	}
	return pool.ReduceInt(m.N(), body)
}

// SegmentPScores returns, for each of the ceil(n/M) segments (column
// stripes), the number of its segment vectors violating the horizontal
// constraint. One row-order scan adds each violation into its
// segment's count.
func SegmentPScores(m *bitmat.Matrix, p VNM) []int {
	scores := make([]int, m.NumSegments(p.M))
	for i := 0; i < m.N(); i++ {
		overLanes(m.Row(i), p.M, p.N, scores)
	}
	return scores
}

// SegmentNNZ returns the number of nonzeros in each column-stripe
// segment. One row-order scan walks the set bits, skipping zero words.
func SegmentNNZ(m *bitmat.Matrix, p VNM) []int {
	counts := make([]int, m.NumSegments(p.M))
	for i := 0; i < m.N(); i++ {
		for wi, w := range m.Row(i) {
			for w != 0 {
				counts[(wi*64+bits.TrailingZeros64(w))/p.M]++
				w &= w - 1
			}
		}
	}
	return counts
}

// overLanes is the scoring kernel: it counts the M-bit segment
// vectors of the row words whose popcount exceeds limit, adding one to
// per[segment] for each when per is non-nil. For a power-of-two M a
// word holds 64/M whole segment vectors, so a word whose popcount is
// at most limit cannot hold a violating one and is skipped whole; the
// others walk only their nonzero lanes. An M that is not a power of
// two has segments straddling words and takes the per-segment path.
// M must be in [1, 64].
func overLanes(words []uint64, M, limit int, per []int) int {
	if M&(M-1) != 0 {
		return overSegments(words, M, limit, per)
	}
	mask := maskLow(M)
	lanesPerWord := 64 / M
	count := 0
	for wi, w := range words {
		if bits.OnesCount64(w) <= limit {
			continue
		}
		for w != 0 {
			shift := bits.TrailingZeros64(w) &^ (M - 1)
			if bits.OnesCount64(w>>uint(shift)&mask) > limit {
				count++
				if per != nil {
					per[wi*lanesPerWord+shift/M]++
				}
			}
			w &^= mask << uint(shift)
		}
	}
	return count
}

// overSegments is overLanes for an M that is not a power of two: it
// extracts each segment vector from the (at most two) words it spans.
func overSegments(words []uint64, M, limit int, per []int) int {
	mask := maskLow(M)
	count := 0
	for s, start := 0, 0; start < 64*len(words); s, start = s+1, start+M {
		wi, off := start/64, uint(start%64)
		v := words[wi] >> off
		if off != 0 && wi+1 < len(words) {
			v |= words[wi+1] << (64 - off)
		}
		if bits.OnesCount64(v&mask) > limit {
			count++
			if per != nil {
				per[s]++
			}
		}
	}
	return count
}

// maskLow returns a mask of the low k bits, k in [1, 64].
func maskLow(k int) uint64 {
	return ^uint64(0) >> uint(64-k)
}

// MetaBlockVerticalValid reports only the vertical constraint of the
// meta-block: at most K distinct nonzero columns.
func MetaBlockVerticalValid(m *bitmat.Matrix, p VNM, rowStart, seg int) bool {
	return bits.OnesCount64(m.ColumnsUsed(rowStart, seg, p.M, p.V)) <= p.EffK()
}

// MBScore returns the number of meta-blocks violating the vertical
// constraint — F_MB(phi) in the paper (Algorithm 2's GetMbScore).
func MBScore(m *bitmat.Matrix, p VNM) int {
	return MBScoreOn(nil, m, p)
}

// MBScoreOn computes MBScore on an explicit execution pool (nil falls
// back to the bitmat helper); like PScoreOn it is pool-size-invariant.
// A meta-block's used columns are the OR of its V segment vectors, so
// each band's rows are ORed word-wise and scored by the same kernel
// with limit K. A meta-block spans only M columns, so when M <= K none
// can violate and the score is 0 without a scan.
func MBScoreOn(pool *sched.Pool, m *bitmat.Matrix, p VNM) int {
	if p.M <= p.EffK() {
		return 0
	}
	body := func(lo, hi int) int {
		scratch := make([]uint64, m.WordsPerRow())
		count := 0
		for b := lo; b < hi; b++ {
			count += overLanes(bandColumns(m, p, b, scratch), p.M, p.EffK(), nil)
		}
		return count
	}
	bands := NumBlockRows(m, p)
	if pool == nil {
		return bitmat.ParallelReduceInt(bands, body)
	}
	return pool.ReduceInt(bands, body)
}

// bandColumns returns the word-wise OR of band b's rows: bit j is set
// when any row of the band has a nonzero in column j. A one-row band
// returns that row itself; otherwise the OR is written to scratch.
func bandColumns(m *bitmat.Matrix, p VNM, b int, scratch []uint64) []uint64 {
	lo, hi := b*p.V, min((b+1)*p.V, m.N())
	if hi-lo == 1 {
		return m.Row(lo)
	}
	clear(scratch)
	for r := lo; r < hi; r++ {
		for k, w := range m.Row(r) {
			scratch[k] |= w
		}
	}
	return scratch
}

// RowPScore returns the number of row i's segment vectors violating the
// horizontal constraint — one row's contribution to PScore. The
// incremental maintenance layer (internal/dyn) uses these partial
// scores to track conformity drift by exact deltas: recompute the
// affected partials before and after a local change and adjust the
// running total, instead of rescanning the matrix.
func RowPScore(m *bitmat.Matrix, p VNM, i int) int {
	return overLanes(m.Row(i), p.M, p.N, nil)
}

// NumBlockRows returns the number of V-row meta-block bands:
// ceil(n / V).
func NumBlockRows(m *bitmat.Matrix, p VNM) int {
	return (m.N() + p.V - 1) / p.V
}

// BlockRowMBScore returns the number of meta-blocks in block band b
// (rows [b*V, (b+1)*V)) violating the vertical constraint — one band's
// contribution to MBScore.
func BlockRowMBScore(m *bitmat.Matrix, p VNM, b int) int {
	if p.M <= p.EffK() || b*p.V >= m.N() {
		return 0
	}
	return overLanes(bandColumns(m, p, b, make([]uint64, m.WordsPerRow())), p.M, p.EffK(), nil)
}

// Violations aggregates both violation counts for a matrix under a
// pattern.
type Violations struct {
	Pattern VNM
	PScore  int // segment vectors violating the horizontal constraint
	MBScore int // meta-blocks violating the vertical constraint
}

// Conforming reports whether the matrix fully conforms to the pattern.
func (v Violations) Conforming() bool { return v.PScore == 0 && v.MBScore == 0 }

// Conforms reports whether the matrix satisfies every V:N:M constraint.
func Conforms(m *bitmat.Matrix, p VNM) bool {
	if PScore(m, p) != 0 {
		return false
	}
	return MBScore(m, p) == 0
}

// ImprovementRate is the paper's effectiveness metric for a reordering:
// (initial - final) / initial, where the arguments count violating
// segment vectors. By convention it is 1 (100%) when initial is 0 and
// final is 0, and 0 when initial is 0 but final is positive (cannot
// happen with a correct reorder).
//
// Note the paper prints the metric as a positive percentage
// ("improvement rate 99.29%") even though its formula is written
// (final-initial)/initial; we use the positive reduction convention the
// results tables use.
func ImprovementRate(initial, final int) float64 {
	if initial == 0 {
		if final == 0 {
			return 1
		}
		return 0
	}
	return float64(initial-final) / float64(initial)
}
