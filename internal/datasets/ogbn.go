package datasets

import (
	"repro/internal/graph"
)

// OGBNMeta describes one OGBN large-graph dataset (Table 2 bottom rows
// and Table 6), with the average sampled-subgraph vertex count the
// paper reports for its NeighborSampler partitioning (Section 5.2).
type OGBNMeta struct {
	Name       string
	N, E       int
	F, Classes int
	AvgSample  int // paper's average vertices per sampled subgraph
}

// OGBNMetas lists the four OGBN datasets of Table 6.
var OGBNMetas = []OGBNMeta{
	{Name: "ogbn-proteins", N: 132534, E: 39561252, F: 128, Classes: 2, AvgSample: 24604},
	{Name: "ogbn-arxiv", N: 169343, E: 1166243, F: 128, Classes: 40, AvgSample: 2514},
	{Name: "ogbn-products", N: 2449029, E: 61859140, F: 100, Classes: 47, AvgSample: 19833},
	{Name: "ogbn-papers100M", N: 111059956, E: 1615685872, F: 128, Classes: 172, AvgSample: 7607},
}

// OGBNGraph synthesizes a stand-in large graph for the named OGBN
// dataset at the given scale: an RMAT-flavored graph whose density
// matches the real dataset's average degree, with community structure
// mixed in for the denser ones. The distributed pipeline samples
// subgraphs from it.
func OGBNGraph(meta OGBNMeta, scale float64, seed int64) *graph.Graph {
	if scale <= 0 {
		scale = 0.01
	}
	n := int(float64(meta.N) * scale)
	if n < 2000 {
		n = 2000
	}
	avgDeg := 2 * float64(meta.E) / float64(meta.N)
	if avgDeg > 24 {
		avgDeg = 24 // cap the synthetic density; proteins is extremely dense
	}
	switch meta.Name {
	case "ogbn-proteins":
		// Dense biological interaction net: heavy-tailed.
		m := int(avgDeg / 4)
		if m < 1 {
			m = 1
		}
		return graph.BarabasiAlbert(n, m, seed)
	default:
		// Citation / co-purchase networks: strong community structure
		// (the regime where sampled subgraphs reorder well).
		nc := n / 400
		if nc < 4 {
			nc = 4
		}
		sizes := make([]int, nc)
		for i := range sizes {
			sizes[i] = n / nc
		}
		classSize := float64(n / nc)
		pIn := avgDeg * 0.85 / classSize
		pOut := avgDeg * 0.15 / (float64(n) - classSize)
		g, _ := graph.SBM(sizes, pIn, pOut, seed)
		return g
	}
}
