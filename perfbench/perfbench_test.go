package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// shortSizes shrink every workload to a second or two.
var shortSizes = map[string]sizes{
	"train-gcn":   {Scale: 0.03, Features: 16, Hidden: 16, Pattern: "4:2:8", CheckEpoch: 4, Setups: 2, Warmup: 0.1},
	"serve-read":  {Nodes: 1024, Pattern: "4:2:8", Clients: 2, ReqNodes: 8, Setups: 2, Warmup: 0.1},
	"serve-mixed": {Nodes: 512, Pattern: "4:2:8", Clients: 2, ReqNodes: 8, WriteRatio: 0.2, Setups: 2, Warmup: 0.1},
	"dist-spmm":   {Nodes: 1024, Degree: 8, MaxN: 256, Pattern: "1:2:4", Features: 8, Setups: 2, Warmup: 0.1},
}

func runShort(t *testing.T, name string, seed int64, traced bool) *report {
	t.Helper()
	rep, err := runWorkload(workloads[name], runConfig{
		name: name, seed: seed, measure: 300 * time.Millisecond, traced: traced,
		size: shortSizes[name], outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// TestWorkloadsShort runs every workload in both modes and checks the
// result line's format: exactly the keys correct, attempted, failed and
// metrics, and exactly the metrics BENCHMARK.json names for the mode,
// with their units.
func TestWorkloadsShort(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			rep := runShort(t, name, 3, traced)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.stamp.CheckErrors)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", name, err)
			}
			if got := sortedKeys(last); strings.Join(got, ",") != "attempted,correct,failed,metrics" {
				t.Errorf("%s: result keys %v", name, got)
			}
			var metrics map[string]metricValue
			if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			names := map[string]string{}
			for _, d := range want {
				names[d.Name] = d.Unit
			}
			for m, v := range metrics {
				unit, ok := names[m]
				switch {
				case !ok:
					t.Errorf("%s traced=%v printed %q, which BENCHMARK.json does not name", name, traced, m)
				case unit != v.Unit:
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", name, m, v.Unit, unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m, v.Value)
				}
			}
			for m := range names {
				if _, ok := metrics[m]; !ok {
					t.Errorf("%s traced=%v did not print %q", name, traced, m)
				}
			}
		}
	}
}

// TestServeReadChecksumStable: the order-independent checksum of the
// script prefix depends on the seed only.
func TestServeReadChecksumStable(t *testing.T) {
	a := runShort(t, "serve-read", 5, false).stamp.Details["prefix_checksum"]
	b := runShort(t, "serve-read", 5, false).stamp.Details["prefix_checksum"]
	c := runShort(t, "serve-read", 6, false).stamp.Details["prefix_checksum"]
	if a == nil || a != b {
		t.Errorf("same seed, prefix checksums %v and %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 share prefix checksum %v", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

// TestSummarizeWindows: a slow burst confined to one window of three
// does not move the reported median, tail or rate.
func TestSummarizeWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	var ss []sample
	for i := 0; i < 300; i++ {
		d := time.Millisecond
		if i >= 100 && i < 200 {
			d = 10 * time.Millisecond
		}
		ss = append(ss, sample{start: t0.Add(time.Duration(i) * time.Millisecond), d: d})
	}
	whole, split := summarize(ss, 1), summarize(ss, 3)
	if whole.p50 != time.Millisecond || whole.tail != 10*time.Millisecond || whole.pctl != 90 {
		t.Errorf("one window: %+v", whole)
	}
	if split.p50 != time.Millisecond || split.tail != time.Millisecond || split.pctl != 90 {
		t.Errorf("three windows: %+v", split)
	}
	if split.rate < 990 || split.rate > 1000 {
		t.Errorf("three windows: rate %v, want about 1000/s", split.rate)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 40: 75, 99: 75, 100: 90, 999: 90, 1000: 99, 20000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	bf := &benchmarkFile{EndToEnd: []boundDef{
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	file := func(lat, ops float64) string {
		var b strings.Builder
		for i := 0; i < 3; i++ {
			b.WriteString(`{"stamp":{"workload":"w"}}` + "\n")
			v := 1 + 0.01*float64(i)
			b.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{"latency_p50_ms":{"value":` +
				jsonNum(lat*v) + `,"unit":"ms"},"ops_per_s":{"value":` + jsonNum(ops*v) + `,"unit":"1/s"}}}` + "\n")
		}
		return b.String()
	}
	parse := func(s string) runSet {
		rs, err := readRuns(strings.NewReader("go: building\n" + s))
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	old := parse(file(10, 100))
	for _, c := range []struct {
		lat, ops float64
		want     []string
		bad      int
	}{
		{10.5, 95, []string{"agree", "agree"}, 0},
		{12, 100, []string{"worse", "agree"}, 1},
		{10, 80, []string{"agree", "worse"}, 1},
		{8, 130, []string{"better", "better"}, 2},
	} {
		rows, bad := compareSets(bf, old, parse(file(c.lat, c.ops)))
		if bad != c.bad || len(rows) != 2 {
			t.Fatalf("lat=%v ops=%v: %d rows, %d outside bound; want %d", c.lat, c.ops, len(rows), bad, c.bad)
		}
		for i, r := range rows {
			if !strings.HasSuffix(r, "\t"+c.want[i]) {
				t.Errorf("lat=%v ops=%v row %q, want verdict %s", c.lat, c.ops, r, c.want[i])
			}
		}
	}
}

func jsonNum(v float64) string {
	b, _ := json.Marshal(math.Round(v*1e6) / 1e6)
	return string(b)
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "dist-spmm", "--trace", "2"},
		{"--workload", "dist-spmm", "--seconds", "0"},
		{"compare", "only-one"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
