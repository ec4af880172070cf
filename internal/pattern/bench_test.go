package pattern

import (
	"testing"

	"repro/internal/sched"
)

// BenchmarkScore times one full PScore and MBScore pass on a serial
// pool at n = 1024 with ~8 nonzeros per row: the reorder engine's
// scoring layer, measured alone. 1:2:4 (printed 2:4) is the dist-spmm
// pattern, whose MBScore takes the M <= K shortcut; 4:2:8 scans every
// band.
func BenchmarkScore(b *testing.B) {
	m := randomBits(1024, 8*1024, 1)
	pool := sched.New(1)
	for _, p := range []VNM{New(1, 2, 4), New(4, 2, 8)} {
		b.Run(p.String()+"/pscore", func(b *testing.B) {
			for range b.N {
				PScoreOn(pool, m, p)
			}
		})
		b.Run(p.String()+"/mbscore", func(b *testing.B) {
			for range b.N {
				MBScoreOn(pool, m, p)
			}
		})
	}
}
