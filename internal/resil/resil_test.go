package resil

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParsePlanRoundTrip(t *testing.T) {
	cases := []string{
		"crash@sample:2",
		"seed=42;crash@tile:3;straggler@partition/1:1:5ms;corrupt@sample/xfer:2;transient@sample:1",
		"straggler@p:4:150us",
		"seed=-7;corrupt@a.b-c_d/e:9",
	}
	for _, in := range cases {
		p, err := ParsePlan(in)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", in, err)
		}
		s := p.String()
		p2, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", s, err)
		}
		if p2.String() != s {
			t.Errorf("round trip unstable: %q -> %q", s, p2.String())
		}
		if len(p2.Events) != len(p.Events) || p2.Seed != p.Seed {
			t.Errorf("round trip lost content for %q", in)
		}
	}
}

func TestParsePlanEmptyAndBad(t *testing.T) {
	for _, in := range []string{"", "  ", ";;", "\n,\n"} {
		p, err := ParsePlan(in)
		if err != nil || p != nil {
			t.Errorf("ParsePlan(%q) = %v, %v; want nil, nil", in, p, err)
		}
	}
	bad := []string{
		"boom@site:1",          // unknown kind
		"crash@:1",             // empty site
		"crash@site:0",         // occurrence < 1
		"crash@site:x",         // non-numeric occurrence
		"crash@site:1:5ms",     // delay on non-straggler
		"straggler@site:1:bad", // unparseable delay
		"straggler@site:1:-5s", // negative delay
		"crash@site:1:2:3",     // too many fields
		"crashsite",            // no @
		"seed=zz",              // bad seed
		"crash@sp ace:1",       // site charset
		"crash@s:1;crash@s:1",  // duplicate (site, occurrence)
	}
	for _, in := range bad {
		if _, err := ParsePlan(in); err == nil {
			t.Errorf("ParsePlan(%q) succeeded, want error", in)
		}
	}
}

func TestParsePlanDefaults(t *testing.T) {
	p, err := ParsePlan("straggler@s")
	if err != nil {
		t.Fatal(err)
	}
	e := p.Events[0]
	if e.Site != "s" || e.Occurrence != 1 || e.Delay != DefaultStragglerDelay {
		t.Errorf("defaults not applied: %+v", e)
	}
}

func TestInjectorFiresExactlyOnce(t *testing.T) {
	p, err := ParsePlan("transient@s:3")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	in := NewInjector(p, reg)
	fired := 0
	for i := 0; i < 10; i++ {
		if in.Fire("s") != nil {
			fired++
			if i != 2 {
				t.Errorf("event fired on hit %d, want hit 3", i+1)
			}
		}
		if in.Fire("other") != nil {
			t.Error("unscheduled site fired")
		}
	}
	if fired != 1 {
		t.Errorf("event fired %d times, want exactly once", fired)
	}
	if got := reg.Snapshot().Counters["resil/injected/transient"]; got != 1 {
		t.Errorf("injected counter = %d, want 1", got)
	}
}

func TestInjectorConcurrentExactlyOnce(t *testing.T) {
	p, _ := ParsePlan("corrupt@s:500")
	in := NewInjector(p, nil)
	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if in.Fire("s") != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("event fired %d times under concurrency, want exactly once", fired)
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.Fire("s") != nil {
		t.Error("nil injector fired")
	}
	in.Exec("s")
	if err := in.Begin("s"); err != nil {
		t.Error(err)
	}
	if in.Corrupt("s", []float32{1}) {
		t.Error("nil injector corrupted")
	}
	if in.Obs() != nil {
		t.Error("nil injector has obs")
	}
	if NewInjector(nil, nil) != nil {
		t.Error("NewInjector(nil) != nil")
	}
}

func TestBeginSemantics(t *testing.T) {
	p, _ := ParsePlan("crash@c:1;transient@t:1;straggler@s:1:1ms;corrupt@x:1")
	in := NewInjector(p, nil)

	err := Protect(func() error { in.Begin("c"); return nil })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("crash did not panic: %v", err)
	}
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Site != "c" {
		t.Fatalf("PanicError does not unwrap to CrashError: %v", err)
	}

	var te *TransientError
	if err := in.Begin("t"); !errors.As(err, &te) {
		t.Fatalf("transient Begin = %v", err)
	}
	start := time.Now()
	if err := in.Begin("s"); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < time.Millisecond {
		t.Error("straggler did not delay")
	}
	if err := in.Begin("x"); err != nil {
		t.Errorf("corrupt event at Begin should be ignored: %v", err)
	}
}

func TestCorruptDetectedByChecksum(t *testing.T) {
	p, _ := ParsePlan("seed=99;corrupt@xfer:1")
	in := NewInjector(p, nil)
	data := make([]float32, 64)
	for i := range data {
		data[i] = float32(i) * 0.5
	}
	sum := Checksum(data)
	if !in.Corrupt("xfer", data) {
		t.Fatal("corrupt event did not fire")
	}
	if Checksum(data) == sum {
		t.Fatal("corruption did not change the checksum")
	}
	// Replay: the same plan corrupts the same position.
	in2 := NewInjector(p, nil)
	data2 := make([]float32, 64)
	for i := range data2 {
		data2[i] = float32(i) * 0.5
	}
	in2.Corrupt("xfer", data2)
	if Checksum(data2) != Checksum(data) {
		t.Fatal("replayed plan corrupted differently")
	}
}

func TestCorruptEmptySliceNoop(t *testing.T) {
	p, _ := ParsePlan("corrupt@x:1")
	in := NewInjector(p, nil)
	if in.Corrupt("x", nil) {
		t.Error("corrupting an empty slice reported true")
	}
}

func TestRetrySucceedsAfterTransients(t *testing.T) {
	reg := obs.NewRegistry()
	calls := 0
	err := Retry(RetryPolicy{Max: 4, Backoff: -1}, reg, "site", func(attempt int) error {
		calls++
		if attempt < 2 {
			return &TransientError{Site: "site"}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if got := reg.Snapshot().Counters["resil/retries/site"]; got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
}

func TestRetryExhausts(t *testing.T) {
	sentinel := errors.New("always")
	err := Retry(RetryPolicy{Max: 2, Backoff: -1}, nil, "s", func(int) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("exhausted retry should wrap the last error: %v", err)
	}
}

func TestRetryBudget(t *testing.T) {
	err := Retry(RetryPolicy{Max: 100, Backoff: 2 * time.Millisecond, Budget: time.Millisecond}, nil, "s",
		func(int) error {
			time.Sleep(2 * time.Millisecond)
			return errors.New("slow failure")
		})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want BudgetError, got %v", err)
	}
	if be.Attempts >= 100 {
		t.Errorf("budget did not bound attempts: %d", be.Attempts)
	}
}

func TestProtectPassthrough(t *testing.T) {
	if err := Protect(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("plain")
	if err := Protect(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Protect altered a plain error: %v", err)
	}
	err := Protect(func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Recovered != "boom" {
		t.Fatalf("Protect(panic) = %v", err)
	}
	if !strings.Contains(string(pe.Stack), "resil") {
		t.Error("PanicError carries no stack")
	}
}

func TestIsInjected(t *testing.T) {
	if !IsInjected(&CrashError{}) || !IsInjected(&TransientError{}) || !IsInjected(&ChecksumError{}) {
		t.Error("injected error kinds not recognized")
	}
	if !IsInjected(&PanicError{Recovered: &CrashError{}}) {
		t.Error("wrapped crash not recognized")
	}
	if IsInjected(errors.New("genuine")) {
		t.Error("genuine error misclassified as injected")
	}
}

func TestSpeculateFastPath(t *testing.T) {
	v, err := Speculate(0, nil, func() (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("v=%v err=%v", v, err)
	}
}

func TestSpeculateRedispatch(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	redispatched := 0
	v, err := Speculate(2*time.Millisecond, func() { redispatched++ }, func() (any, error) {
		mu.Lock()
		first := calls == 0
		calls++
		mu.Unlock()
		if first {
			time.Sleep(200 * time.Millisecond) // straggler
		}
		return 11, nil
	})
	if err != nil || v.(int) != 11 {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if redispatched != 1 {
		t.Errorf("redispatched=%d, want 1", redispatched)
	}
}

func TestSpeculateCapturesPanic(t *testing.T) {
	_, err := Speculate(time.Hour, nil, func() (any, error) { panic("dead worker") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
}

func TestChecksumSensitivity(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{1, 2, 3, 4}
	if Checksum(a) != Checksum(b) {
		t.Fatal("equal data, different checksums")
	}
	b[2] = 3.0000002
	if Checksum(a) == Checksum(b) {
		t.Fatal("one-ULP change not detected")
	}
	// Bit patterns matter, not values: -0 differs from +0.
	if Checksum([]float32{0}) == Checksum([]float32{float32(math.Copysign(0, -1))}) {
		t.Fatal("signed zero not distinguished")
	}
}
