// Package resil is the deterministic fault-injection and recovery
// layer: a seeded injector that fires scheduled faults (worker crash,
// straggler delay, corrupted partial result, transient kernel error) at
// named sites threaded through the execution stack, plus the recovery
// primitives — panic capture, bounded retry with deterministic backoff,
// result checksums, speculative re-dispatch — the distributed training
// pipeline uses to survive them.
//
// Determinism contract (DESIGN.md §10): a fault plan is a set of
// (site, occurrence) events. Every site maintains a hit counter; an
// event fires on the exact occurrence it names and never again, so
// replaying a plan against the same workload injects byte-identical
// faults, and the recovery machinery (which recomputes pure functions
// whose parallel execution is already bit-deterministic, DESIGN.md §7)
// restores results bit-identical to the fault-free run. A nil *Plan or
// nil *Injector disables injection entirely at the cost of one pointer
// test per site — the same contract internal/obs keeps for disabled
// instrumentation.
package resil

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the fault taxonomy.
type Kind uint8

const (
	// KindCrash panics at the site — the process-killing failure mode
	// (a worker segfault, an OOM kill) the tile engine converts into a
	// typed, recoverable error.
	KindCrash Kind = iota
	// KindStraggler delays the site by the event's Delay — the slow
	// worker the dispatcher mitigates by speculative re-dispatch.
	KindStraggler
	// KindCorrupt flips bits in the partial result transferred from the
	// site — detected by the receiver's checksum verification.
	KindCorrupt
	// KindTransient returns a retryable error from the site — the
	// ECC-correctable / launch-failure class that succeeds on retry.
	KindTransient
)

func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindStraggler:
		return "straggler"
	case KindCorrupt:
		return "corrupt"
	case KindTransient:
		return "transient"
	}
	return "unknown"
}

// DefaultStragglerDelay is the delay a straggler event applies when the
// plan names none.
const DefaultStragglerDelay = 10 * time.Millisecond

// Event is one scheduled fault: the Kind to inject when site Site is
// hit for the Occurrence-th time (1-based).
type Event struct {
	Kind       Kind
	Site       string
	Occurrence int64
	Delay      time.Duration // stragglers only
}

func (e Event) String() string {
	s := fmt.Sprintf("%s@%s:%d", e.Kind, e.Site, e.Occurrence)
	if e.Kind == KindStraggler {
		s += ":" + e.Delay.String()
	}
	return s
}

// Plan is a parsed fault plan: a seed (feeding the deterministic
// corruption patterns) and the scheduled events.
type Plan struct {
	Seed   int64
	Events []Event
}

// String renders the plan in the canonical form ParsePlan accepts:
// ParsePlan(p.String()) reproduces p exactly.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	parts := make([]string, 0, len(p.Events)+1)
	if p.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(p.Seed, 10))
	}
	for _, e := range p.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, ";")
}

// siteOK reports whether every rune of a site name is in the allowed
// charset (letters, digits, '/', '_', '-', '.').
func siteOK(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '/' || r == '_' || r == '-' || r == '.':
		default:
			return false
		}
	}
	return true
}

// ParsePlan parses the textual fault-plan format the CLIs' -faults flag
// accepts: clauses separated by ';', ',' or newlines, each either
//
//	seed=<int>                          corruption seed (default 0)
//	<kind>@<site>[:<occurrence>]        crash | corrupt | transient
//	straggler@<site>[:<occurrence>][:<delay>]
//
// Occurrence is the 1-based hit count of the site the event fires on
// (default 1); delay is a Go duration (default 10ms). Sites are
// restricted to [A-Za-z0-9/_.-]. An empty plan string yields a nil
// Plan (injection disabled).
func ParsePlan(s string) (*Plan, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ';' || r == ',' || r == '\n'
	})
	p := &Plan{}
	for _, raw := range fields {
		clause := strings.TrimSpace(raw)
		if clause == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("resil: bad seed %q: %v", rest, err)
			}
			p.Seed = seed
			continue
		}
		kindStr, rest, ok := strings.Cut(clause, "@")
		if !ok {
			return nil, fmt.Errorf("resil: clause %q has no '@'", clause)
		}
		var kind Kind
		switch kindStr {
		case "crash":
			kind = KindCrash
		case "straggler":
			kind = KindStraggler
		case "corrupt":
			kind = KindCorrupt
		case "transient":
			kind = KindTransient
		default:
			return nil, fmt.Errorf("resil: unknown fault kind %q", kindStr)
		}
		ev := Event{Kind: kind, Occurrence: 1}
		if kind == KindStraggler {
			ev.Delay = DefaultStragglerDelay
		}
		parts := strings.Split(rest, ":")
		ev.Site = parts[0]
		if !siteOK(ev.Site) {
			return nil, fmt.Errorf("resil: bad site %q", ev.Site)
		}
		args := parts[1:]
		if len(args) > 0 && args[0] != "" {
			occ, err := strconv.ParseInt(args[0], 10, 64)
			if err != nil || occ < 1 {
				return nil, fmt.Errorf("resil: bad occurrence %q in %q", args[0], clause)
			}
			ev.Occurrence = occ
		}
		if len(args) > 1 {
			if kind != KindStraggler {
				return nil, fmt.Errorf("resil: delay only valid for straggler events: %q", clause)
			}
			d, err := time.ParseDuration(args[1])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("resil: bad delay %q in %q", args[1], clause)
			}
			ev.Delay = d
		}
		if len(args) > 2 {
			return nil, fmt.Errorf("resil: too many fields in %q", clause)
		}
		for _, prev := range p.Events {
			if prev.Site == ev.Site && prev.Occurrence == ev.Occurrence {
				return nil, fmt.Errorf("resil: duplicate event for (%s, %d)", ev.Site, ev.Occurrence)
			}
		}
		p.Events = append(p.Events, ev)
	}
	if p.Seed == 0 && len(p.Events) == 0 {
		return nil, nil
	}
	return p, nil
}
