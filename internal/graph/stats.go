package graph

import (
	"math/rand"
	"sort"
)

// Stats summarizes the structural statistics reported in the paper's
// Table 1 and Table 2: vertex/edge counts, degree distribution, and an
// (estimated) diameter.
type Stats struct {
	Vertices  int
	Edges     int // undirected edges
	AvgDegree float64
	MaxDegree int
	MedDegree float64
	Density   float64 // nnz / n^2 of the adjacency matrix
	Diameter  int     // BFS-estimated pseudo-diameter
}

// ComputeStats gathers Stats for a graph. Diameter is estimated with a
// few double-sweep BFS passes from random seeds (exact on trees, a
// lower bound in general — the convention large-graph suites use).
func ComputeStats(g *Graph, seed int64) Stats {
	s := Stats{Vertices: g.N(), Edges: g.NumUndirectedEdges()}
	if g.N() == 0 {
		return s
	}
	degs := make([]int, g.N())
	total := 0
	for u := 0; u < g.N(); u++ {
		degs[u] = g.Degree(u)
		total += degs[u]
		if degs[u] > s.MaxDegree {
			s.MaxDegree = degs[u]
		}
	}
	s.AvgDegree = float64(total) / float64(g.N())
	sorted := append([]int(nil), degs...)
	sort.Ints(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.MedDegree = float64(sorted[mid])
	} else {
		s.MedDegree = float64(sorted[mid-1]+sorted[mid]) / 2
	}
	s.Density = float64(g.NumEdges()) / (float64(g.N()) * float64(g.N()))
	s.Diameter = EstimateDiameter(g, 4, seed)
	return s
}

// BFS returns the distance (in edges) from src to every vertex, with -1
// for unreachable vertices, plus the farthest reached vertex and its
// distance.
func BFS(g *Graph, src int) (dist []int32, far int, farDist int32) {
	dist = make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	far, farDist = src, 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				if dist[v] > farDist {
					farDist = dist[v]
					far = int(v)
				}
				queue = append(queue, v)
			}
		}
	}
	return dist, far, farDist
}

// EstimateDiameter runs `sweeps` double-sweep BFS passes and returns
// the largest eccentricity found.
func EstimateDiameter(g *Graph, sweeps int, seed int64) int {
	if g.N() == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	best := int32(0)
	for s := 0; s < sweeps; s++ {
		src := rng.Intn(g.N())
		if g.Degree(src) == 0 {
			continue
		}
		_, far, _ := BFS(g, src)
		_, _, d := BFS(g, far)
		if d > best {
			best = d
		}
	}
	return int(best)
}
