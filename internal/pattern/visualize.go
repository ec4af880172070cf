package pattern

import (
	"fmt"
	"strings"

	"repro/internal/bitmat"
)

// Visualize renders a small matrix's conformity against a pattern as
// an ASCII picture: '.' zero, 'o' nonzero in a conforming segment
// vector, 'X' nonzero in a violating one, with segment boundaries
// marked by '|' and meta-block row boundaries by lines of '-'. Used by
// examples and debugging; matrices larger than 128 render a summary.
func Visualize(m *bitmat.Matrix, p VNM) string {
	n := m.N()
	if n > 128 {
		v := Violations{Pattern: p, PScore: PScore(m, p), MBScore: MBScore(m, p)}
		return fmt.Sprintf("matrix %dx%d vs %v: PScore=%d MBScore=%d (too large to draw)\n",
			n, n, p, v.PScore, v.MBScore)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pattern %v (K=%d)\n", p, p.EffK())
	segs := m.NumSegments(p.M)
	rowLine := func() {
		for s := 0; s < segs; s++ {
			width := p.M
			if s == segs-1 && n%p.M != 0 {
				width = n % p.M
			}
			b.WriteString(strings.Repeat("-", width))
			b.WriteByte('+')
		}
		b.WriteByte('\n')
	}
	for i := 0; i < n; i++ {
		if i%p.V == 0 && p.V > 1 {
			rowLine()
		}
		for s := 0; s < segs; s++ {
			valid := m.SegmentPop(i, s, p.M) <= p.N
			width := p.M
			if s == segs-1 && n%p.M != 0 {
				width = n % p.M
			}
			for c := 0; c < width; c++ {
				col := s*p.M + c
				switch {
				case !m.Get(i, col):
					b.WriteByte('.')
				case valid:
					b.WriteByte('o')
				default:
					b.WriteByte('X')
				}
			}
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	v := Violations{Pattern: p, PScore: PScore(m, p), MBScore: MBScore(m, p)}
	fmt.Fprintf(&b, "PScore=%d MBScore=%d conforming=%v\n", v.PScore, v.MBScore, v.Conforming())
	return b.String()
}
