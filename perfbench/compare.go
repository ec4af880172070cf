package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runSet maps workload -> metric -> values across runs.
type runSet map[string]map[string][]float64

// readRuns parses concatenated run outputs: each result line belongs
// to the workload named by the stamp line before it.
func readRuns(r io.Reader) (runSet, error) {
	set := runSet{}
	workload := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			Stamp   *stamp                 `json:"stamp"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // build output and other text
		}
		switch {
		case line.Stamp != nil:
			workload = line.Stamp.Workload
		case line.Metrics != nil && workload != "":
			if set[workload] == nil {
				set[workload] = map[string][]float64{}
			}
			for name, v := range line.Metrics {
				set[workload][name] = append(set[workload][name], v.Value)
			}
		}
	}
	return set, sc.Err()
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) computes them (method
// "exclusive", clamped at the ends).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// compareMain prints, per (metric, workload), both sides' quartiles
// and whether the new median is within the metric's bound of the old.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD NEW (files of concatenated run outputs)")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var sides [2]runSet
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		sides[i], err = readRuns(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
			return 1
		}
	}
	rows, disagree := compareSets(bf, sides[0], sides[1])
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\told q1/med/q3\tnew q1/med/q3\tchange\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintln(tw, r)
	}
	tw.Flush()
	if disagree > 0 {
		fmt.Fprintf(stdout, "%d end-to-end metric(s) outside their bound\n", disagree)
		return 1
	}
	return 0
}

// compareSets builds the table rows and counts bounded metrics whose
// medians differ by more than the bound in either direction.
func compareSets(bf *benchmarkFile, old, cur runSet) (rows []string, disagree int) {
	var workloads []string
	for w := range old {
		if cur[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	defs := append(append([]boundDef(nil), bf.EndToEnd...), bf.PerLayer...)
	for _, d := range defs {
		for _, w := range workloads {
			a, b := old[w][d.Name], cur[w][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			change := math.NaN()
			if a2 != 0 {
				change = (b2 - a2) / math.Abs(a2)
			}
			verdict, bound := "-", "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				switch {
				case math.Abs(change) <= d.Bound:
					verdict = "agree"
				case (change > 0) == (d.Better == "lower"):
					verdict, disagree = "worse", disagree+1
				default:
					verdict, disagree = "better", disagree+1
				}
			}
			rows = append(rows, fmt.Sprintf("%s\t%s\t%.4g/%.4g/%.4g\t%.4g/%.4g/%.4g\t%+.1f%%\t%s\t%s",
				d.Name, w, a1, a2, a3, b1, b2, b3, 100*change, bound, verdict))
		}
	}
	return rows, disagree
}
