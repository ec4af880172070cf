// Command perfbench is the repository benchmark. It runs one named
// workload against the library's public entry points, checks that the
// outputs are correct, and prints its metrics as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh compare OLD NEW
//
// run.sh builds this package from the checkout it sits in and runs it
// from the checkout's root. Workloads, with the operation each one
// times (every graph is a fixed dataset; the seed generates everything
// drawn on top of it, and the program sees only generated inputs):
//
//	train-gcn    SOGRE partitioned reorder, V:N:M operator build and
//	             full-batch GCN training (the paper's revised-reordered
//	             setting). Times training epochs.
//	serve-read   read-only node queries over loopback HTTP from two
//	             closed-loop clients (queue, coalescing, row cache,
//	             shard dispatch, encode). Times queries.
//	serve-mixed  the same server on a mutable engine with a WAL; about
//	             one slot in ten is a 4-op mutation batch. Times the
//	             mutation batches.
//	dist-spmm    repeated distributed SpMM calls to two loopback
//	             net/rpc workers (shard encode, load, per-partition
//	             reorder and compute, scatter). Times the calls.
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it runs the workload twice — once
// untraced, once with spans recorded around every call into the
// program and the obs registry on — and reports the per-layer metrics,
// the tracing overhead (traced minus untraced) and the share of each
// end-to-end time that no timed layer call covers. Spans stay in
// memory and are written to .bench_build/traces/ when the run ends.
//
// A line {"stamp": {...}} before the result records the seed, nproc,
// GOMAXPROCS, Go version, workload sizes, per-phase operation counts
// and the tail percentile with its sample count. compare reads two
// files of concatenated run outputs and prints, per (metric, workload),
// each side's median and quartiles and whether they agree within the
// bound BENCHMARK.json fixes.
//
// Any failed correctness check makes the run exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the command line, runs one workload (or compare mode)
// and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	rep, err := runWorkload(w, runConfig{
		name:    *name,
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		size:    w.full,
		outDir:  ".bench_build",
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		for _, e := range rep.stamp.CheckErrors {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, e)
		}
		return 1
	}
	return 0
}

// graphSeed generates every workload's graph: the graph is the
// workload's fixed dataset, and --seed drives everything drawn on top
// of it (features, splits, weights, traffic, mutations, the dense
// operand). Across graph draws the reorder outcome and the hot set's
// shard locality differ enough to move end-to-end numbers by a third
// between seeds, which no useful bound could absorb. 20250806 is the
// default seed of sogre-serve and of the bench suites.
const graphSeed = 20250806

// runConfig is one invocation's settings.
type runConfig struct {
	name    string
	seed    int64
	measure time.Duration
	traced  bool
	size    sizes
	outDir  string // scratch files, and traces under outDir/traces
}

// sizes holds a workload's input dimensions. Each workload reads only
// its own fields; tests shrink them.
type sizes struct {
	Nodes      int     `json:"nodes,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	Degree     float64 `json:"degree,omitempty"`
	Features   int     `json:"features,omitempty"`
	Hidden     int     `json:"hidden,omitempty"`
	MaxN       int     `json:"max_partition,omitempty"`
	Pattern    string  `json:"pattern"`
	Clients    int     `json:"clients,omitempty"`
	ReqNodes   int     `json:"request_nodes,omitempty"`
	WriteRatio float64 `json:"write_ratio,omitempty"`
	CheckEpoch int     `json:"check_epochs,omitempty"`
	Windows    int     `json:"windows,omitempty"`
	Setups     int     `json:"setups"`
	Warmup     float64 `json:"warmup_s"`
}

// workload is one named benchmark input set. phase builds the inputs
// from the seed, sets up `setups` times (timing each) and then
// measures for the configured duration; tr is nil in untraced phases.
type workload struct {
	full  sizes
	phase func(cfg runConfig, setups int, tr *tracer) (*phaseResult, error)
}

var workloads = map[string]workload{
	"train-gcn":   {full: trainFull, phase: trainPhase},
	"serve-read":  {full: serveReadFull, phase: serveReadPhase},
	"serve-mixed": {full: serveMixedFull, phase: serveMixedPhase},
	"dist-spmm":   {full: distFull, phase: distPhase},
}

func workloadNames() string {
	return strings.Join(sortedKeys(workloads), ", ")
}

func sortedKeys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// phaseResult is what one measured phase produced.
type phaseResult struct {
	setup  []time.Duration // one per timed set-up
	op     string          // root span name of the timed operation
	lat    []sample        // per successful timed operation
	ops    phaseCount      // measured operations
	warm   phaseCount      // warm-up operations (excluded from totals)
	checks phaseCount      // correctness checks
	errs   []string        // failed check / operation descriptions
	layers map[string]float64
	extra  map[string]any // stamp details (checksums, counts)
}

// phaseCount tallies one phase's operations.
type phaseCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func (c *phaseCount) add(ok bool) {
	c.Attempted++
	if ok {
		c.Succeeded++
	} else {
		c.Failed++
	}
}

func (r *phaseResult) fail(format string, a ...any) {
	r.checks.add(false)
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, a...))
	}
}

func (r *phaseResult) pass() { r.checks.add(true) }

// stamp identifies a run and the conditions it ran under.
type stamp struct {
	Workload    string                `json:"workload"`
	Seed        int64                 `json:"seed"`
	Trace       int                   `json:"trace"`
	Seconds     float64               `json:"seconds"`
	NProc       int                   `json:"nproc"`
	GOMAXPROCS  int                   `json:"gomaxprocs"`
	GoVersion   string                `json:"go_version"`
	Sizes       sizes                 `json:"sizes"`
	Phases      map[string]phaseCount `json:"phases"`
	Samples     int                   `json:"latency_samples"`
	TailPctl    float64               `json:"tail_percentile"`
	Computed    []string              `json:"computed_metrics,omitempty"`
	TraceFile   string                `json:"trace_file,omitempty"`
	Details     map[string]any        `json:"details,omitempty"`
	CheckErrors []string              `json:"check_errors,omitempty"`
}

// report is one run's output: the stamp line and the result line.
type report struct {
	stamp     stamp
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print(w io.Writer) error {
	st, err := json.Marshal(map[string]any{"stamp": r.stamp})
	if err != nil {
		return err
	}
	res, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", st, res)
	return err
}

// runPhases runs the phases the trace mode asks for. A traced run
// splits the duration in two over the same inputs: the untraced half
// is the baseline the traced half's overhead is measured against.
func runPhases(w workload, cfg runConfig) ([]*phaseResult, *tracer, error) {
	if !cfg.traced {
		p, err := w.phase(cfg, cfg.size.Setups, nil)
		return []*phaseResult{p}, nil, err
	}
	cfg.measure /= 2
	untraced, err := w.phase(cfg, 1, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	traced, err := w.phase(cfg, 1, tr)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range traceLayers(untraced, traced, tr) {
		traced.layers[k] = v
	}
	return []*phaseResult{untraced, traced}, tr, nil
}

// runWorkload runs one workload and assembles its report.
func runWorkload(w workload, cfg runConfig) (*report, error) {
	heap := startHeapSampler()
	phases, tr, err := runPhases(w, cfg)
	peak := heap.stop()
	if err != nil {
		return nil, err
	}
	last := phases[len(phases)-1]
	rep := &report{
		stamp: stamp{
			Workload:   cfg.name,
			Seed:       cfg.seed,
			Seconds:    cfg.measure.Seconds(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Sizes:      cfg.size,
			Phases:     map[string]phaseCount{},
			Samples:    len(last.lat),
			Details:    last.extra,
		},
		Correct: true,
		Metrics: map[string]metricValue{},
	}
	for i, p := range phases {
		prefix := ""
		if tr != nil {
			prefix = [2]string{"untraced.", "traced."}[i]
		}
		rep.stamp.Phases[prefix+"warmup"] = p.warm
		rep.stamp.Phases[prefix+"measure"] = p.ops
		rep.stamp.Phases[prefix+"check"] = p.checks
		rep.Attempted += p.ops.Attempted + p.checks.Attempted
		rep.Failed += p.ops.Failed + p.checks.Failed
		rep.Correct = rep.Correct && p.checks.Failed == 0
		rep.stamp.CheckErrors = append(rep.stamp.CheckErrors, p.errs...)
	}
	if tr != nil {
		rep.stamp.Trace = 1
		rep.stamp.Sizes.Setups = 1
		rep.stamp.TraceFile = filepath.Join(cfg.outDir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.name, cfg.seed))
		if err := tr.write(rep.stamp.TraceFile); err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			rep.Metrics[m.name] = metricValue{Value: last.layers[m.name], Unit: m.unit}
			if m.computed {
				rep.stamp.Computed = append(rep.stamp.Computed, m.name)
			}
		}
		return rep, nil
	}
	p := phases[0]
	sum := summarize(p.lat, cfg.size.Windows)
	if p.ops.Succeeded < 1 || !(sum.rate > 0) {
		return nil, fmt.Errorf("no operation completed in the measured window")
	}
	rep.stamp.TailPctl = sum.pctl
	vals := map[string]float64{
		"setup_s":         median(p.setup).Seconds(),
		"peak_heap_mb":    float64(peak) / (1 << 20),
		"success_rate":    float64(p.ops.Succeeded) / float64(p.ops.Attempted),
		"latency_p50_ms":  ms(sum.p50),
		"latency_tail_ms": ms(sum.tail),
		"ops_per_s":       sum.rate,
	}
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return rep, nil
}
