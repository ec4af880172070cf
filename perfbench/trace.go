package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Spans of one operation share Req; the
// operation's own span (the client's view) is named "op.*" and the
// set-up's "setup". Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced phases pay one nil check per call.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	nextRq atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span.
type active struct {
	t     *tracer
	s     span
	start time.Time
}

// req allocates a fresh operation id.
func (t *tracer) req() int64 {
	if t == nil {
		return 0
	}
	return t.nextRq.Add(1)
}

// begin opens a span; end on the returned value closes it.
func (t *tracer) begin(name string, parent, req int64) active {
	if t == nil {
		return active{}
	}
	return active{t: t, s: span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name}, start: time.Now()}
}

func (a active) id() int64 { return a.s.ID }

func (a active) end() {
	if a.t != nil {
		a.t.record(a.s, a.start, time.Now())
	}
}

// record stores a span measured by the caller. An ID of 0 is assigned.
func (t *tracer) record(s span, start, end time.Time) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.nextID.Add(1)
	}
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the durations of every span with the given name.
func (t *tracer) named(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rootSpan is one operation or set-up span with the part of it that no
// other span of the same Req covers.
type rootSpan struct {
	name      string
	dur, self time.Duration
}

// roots lists every span named "op.*" or "setup" with its self time.
func (t *tracer) roots() []rootSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[int64][]span{}
	for _, s := range t.spans {
		if s.Req != 0 {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	var out []rootSpan
	for _, group := range byReq {
		for _, s := range group {
			if strings.HasPrefix(s.Name, "op.") || s.Name == "setup" {
				out = append(out, rootSpan{name: s.Name, dur: s.dur(), self: s.dur() - time.Duration(coveredNs(s, group))})
			}
		}
	}
	return out
}

// selfTimes returns the self time of every root span with the name.
func (t *tracer) selfTimes(name string) []time.Duration {
	var out []time.Duration
	for _, r := range t.roots() {
		if r.name == name {
			out = append(out, r.self)
		}
	}
	return out
}

// coveredNs measures the union of the group's other spans clipped to
// root's interval.
func coveredNs(root span, group []span) int64 {
	var iv [][2]int64
	for _, s := range group {
		if s.ID == root.ID {
			continue
		}
		lo, hi := max(s.Start, root.Start), min(s.End, root.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// traceLayers derives the tracing overhead and uncovered shares.
func traceLayers(untraced, traced *phaseResult, tr *tracer) map[string]float64 {
	a, b := durations(untraced.lat), durations(traced.lat)
	p := tailPercentile(min(len(a), len(b)))
	out := map[string]float64{
		"trace.overhead_p50_ms":  ms(median(b)) - ms(median(a)),
		"trace.overhead_tail_ms": ms(percentile(b, p)) - ms(percentile(a, p)),
	}
	var setup, all []float64
	var ops []rootSpan
	var durs []time.Duration
	for _, r := range tr.roots() {
		if r.dur <= 0 {
			continue
		}
		share := float64(r.self) / float64(r.dur)
		switch r.name {
		case "setup":
			setup = append(setup, share)
		case traced.op:
			ops = append(ops, r)
			durs = append(durs, r.dur)
			all = append(all, share)
		}
	}
	cut := percentile(durs, tailPercentile(len(durs)))
	var tail []float64
	for _, r := range ops {
		if r.dur >= cut {
			tail = append(tail, float64(r.self)/float64(r.dur))
		}
	}
	out["trace.uncovered_setup_share"] = medianF(setup)
	out["trace.uncovered_p50_share"] = medianF(all)
	out["trace.uncovered_tail_share"] = medianF(tail)
	return out
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
