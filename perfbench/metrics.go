package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef names one reported metric. The catalogue below must match
// BENCHMARK.json (perfbench_test checks names and units).
type metricDef struct {
	name, unit string
	computed   bool // derived from operand sizes, not measured
}

// endToEnd is reported by every workload with --trace 0. The latency
// and throughput metrics are about the workload's timed operation: one
// training epoch (train-gcn), one query (serve-read), one mutation
// batch (serve-mixed) or one distributed SpMM call (dist-spmm).
// success_rate counts every operation, serve-mixed's queries included.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "peak_heap_mb", unit: "MB"},
	{name: "success_rate", unit: "ratio"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_tail_ms", unit: "ms"},
	{name: "ops_per_s", unit: "1/s"},
}

// perLayer is reported by every workload with --trace 1. Layers are
// the repository's modules; a layer a workload does not run reports 0.
var perLayer = []metricDef{
	{name: "core.reorder_ms", unit: "ms"},
	{name: "core.partitions", unit: "count"},
	{name: "core.improvement_rate", unit: "ratio"},
	{name: "venom.operator_build_ms", unit: "ms"},
	{name: "venom.residual_nnz_share", unit: "ratio"},
	{name: "spmm.agg_ms_per_epoch", unit: "ms"},
	{name: "spmm.agg_calls", unit: "count"},
	{name: "spmm.gflops", unit: "GFLOP/s", computed: true},
	{name: "spmm.bytes_moved_mb", unit: "MB", computed: true},
	{name: "sched.steals", unit: "count"},
	{name: "gnn.dense_ms_per_epoch", unit: "ms"},
	{name: "serve.engine_build_ms", unit: "ms"},
	{name: "serve.handler_p50_ms", unit: "ms"},
	{name: "serve.transport_p50_ms", unit: "ms"},
	{name: "serve.row_cache_hit_ratio", unit: "ratio"},
	{name: "serve.batch_mean_requests", unit: "count"},
	{name: "serve.shard_builds", unit: "count"},
	{name: "serve.queue_depth_mean", unit: "count"},
	{name: "serve.rejected", unit: "count"},
	{name: "serve.mutate_handler_p50_ms", unit: "ms"},
	{name: "serve.epoch_build_ms", unit: "ms"},
	{name: "serve.csr_window_batches", unit: "count"},
	{name: "dyn.applied_ops", unit: "count"},
	{name: "dyn.rejected_ops", unit: "count"},
	{name: "dyn.rebuilds", unit: "count"},
	{name: "dyn.repair_swaps", unit: "count"},
	{name: "wal.commits", unit: "count"},
	{name: "wal.records_per_commit", unit: "count"},
	{name: "wal.bytes", unit: "bytes"},
	{name: "distributed.load_p50_ms", unit: "ms"},
	{name: "distributed.load_max_ms", unit: "ms"},
	{name: "distributed.compute_p50_ms", unit: "ms"},
	{name: "distributed.compute_max_ms", unit: "ms"},
	{name: "distributed.rpc_overhead_ms", unit: "ms"},
	{name: "distributed.bytes_sent_mb", unit: "MB", computed: true},
	{name: "distributed.redispatches", unit: "count"},
	{name: "trace.overhead_p50_ms", unit: "ms"},
	{name: "trace.overhead_tail_ms", unit: "ms"},
	{name: "trace.uncovered_setup_share", unit: "ratio"},
	{name: "trace.uncovered_p50_share", unit: "ratio"},
	{name: "trace.uncovered_tail_share", unit: "ratio"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedCopy(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// percentile interpolates linearly between closest ranks (the
// definition statistics.quantiles' "inclusive" method uses).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := sortedCopy(ds)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 50) }

// sample is one successful timed operation.
type sample struct {
	start time.Time
	d     time.Duration
}

func durations(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.d
	}
	return out
}

// summary is a run's latency and throughput figures.
type summary struct {
	p50, tail time.Duration
	pctl      float64 // the tail's percentile
	rate      float64 // operations per second
}

// summarize cuts the samples, in start order, into `windows` runs of
// equal count and reports the median over windows of each window's
// median, tail and rate, so a burst of outside load that covers less
// than half the run does not move the figures. A window's tail is the
// highest ladder percentile that leaves ten of its samples above it.
func summarize(ss []sample, windows int) summary {
	windows = max(1, min(windows, len(ss)))
	ss = append([]sample(nil), ss...)
	sort.Slice(ss, func(i, j int) bool { return ss[i].start.Before(ss[j].start) })
	var p50, tail, rate []float64
	pctl := 100.0
	for w := 0; w < windows; w++ {
		win := ss[w*len(ss)/windows : (w+1)*len(ss)/windows]
		ds := durations(win)
		p := tailPercentile(len(win))
		pctl = min(pctl, p)
		var end time.Time
		for _, s := range win {
			if e := s.start.Add(s.d); e.After(end) {
				end = e
			}
		}
		p50 = append(p50, float64(median(ds)))
		tail = append(tail, float64(percentile(ds, p)))
		rate = append(rate, float64(len(win))/end.Sub(win[0].start).Seconds())
	}
	if len(ss) == 0 {
		return summary{}
	}
	return summary{
		p50:  time.Duration(medianF(p50)),
		tail: time.Duration(medianF(tail)),
		pctl: pctl,
		rate: medianF(rate),
	}
}

// tailLadder is the set of percentiles a tail metric may take. It is
// coarse on purpose: a run's sample count must land on the same rung
// from run to run, or the tail metric would change meaning. At the
// benchmark's run length every workload's count sits well inside one
// rung's range (thresholds 20, 40, 100, 1000 and 10000 samples).
var tailLadder = []float64{99.9, 99, 90, 75, 50}

// tailPercentile is the highest rung that leaves at least ten samples
// above it among n.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// heapSampler tracks the peak of live heap objects over a run.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
