package plan

import (
	"strings"
	"testing"

	"repro/internal/predictor/cycle"
)

func sampleCalib() *Calibration {
	return &Calibration{
		Seed:       42,
		Workers:    4,
		TileTarget: 1024,
		Coeffs: []Coefficient{
			{Kernel: cycle.KernelHybrid, NsPerCycle: 0.08125},
			{Kernel: cycle.KernelCSR, NsPerCycle: 0.17},
		},
	}
}

// TestCalibrationRoundTrip: String is canonical and ParseCalibration
// inverts it exactly — the replay contract pinned tables rely on.
func TestCalibrationRoundTrip(t *testing.T) {
	c := sampleCalib()
	text := c.String()
	if !strings.HasPrefix(text, CalibSchema) {
		t.Fatalf("canonical form %q does not lead with the schema", text)
	}
	p, err := ParseCalibration(text)
	if err != nil {
		t.Fatalf("ParseCalibration(%q): %v", text, err)
	}
	if p.String() != text {
		t.Fatalf("round trip not a fixed point:\n%q\n%q", text, p.String())
	}
	if p.Seed != c.Seed || p.Workers != c.Workers || p.TileTarget != c.TileTarget {
		t.Fatalf("provenance changed: %+v vs %+v", p, c)
	}
	for _, k := range cycle.KernelClasses() {
		want, _ := c.NsPerCycle(k)
		got, ok := p.NsPerCycle(k)
		if !ok || got != want {
			t.Fatalf("coefficient %s: got %v (%v), want %v", k, got, ok, want)
		}
	}
	// Coefficients come back in canonical sorted order regardless of
	// construction order.
	for i := 1; i < len(p.Coeffs); i++ {
		if p.Coeffs[i-1].Kernel >= p.Coeffs[i].Kernel {
			t.Fatalf("parsed coefficients not sorted: %+v", p.Coeffs)
		}
	}
}

// TestCalibrationParseRejects: corrupt inputs are rejected with errors,
// never panics, and never half-parsed tables.
func TestCalibrationParseRejects(t *testing.T) {
	bad := []string{
		"bogus/v9; csr=1", // wrong schema
		"sogre-calib/v1; csr-serial=0.5; csr-parallel=1", // superseded v1 table
		CalibSchema,                             // no coefficients
		CalibSchema + "; seed=abc; csr=1",       // bad seed
		CalibSchema + "; workers=-2; csr=1",     // negative workers
		CalibSchema + "; target=-1; csr=1",      // negative target
		CalibSchema + "; csr=0",                 // non-positive coefficient
		CalibSchema + "; csr=-3",                // negative coefficient
		CalibSchema + "; csr=NaN",               // NaN coefficient
		CalibSchema + "; csr=+Inf",              // infinite coefficient
		CalibSchema + "; csr=1; csr=2",          // duplicate kernel
		CalibSchema + "; seed=1; seed=2; csr=1", // duplicate seed
		CalibSchema + "; warp-speed=1",          // unknown kernel
		CalibSchema + "; csr-serial=1",          // v1 class name
		CalibSchema + "; csr",                   // no '='
		";",                                     // separators but no clauses
		"; \n ;",                                // separators but no clauses
	}
	for _, s := range bad {
		if c, err := ParseCalibration(s); err == nil {
			t.Errorf("ParseCalibration(%q) accepted: %+v", s, c)
		}
	}
	// Empty input disables planning rather than erroring.
	if c, err := ParseCalibration("  \n "); err != nil || c != nil {
		t.Fatalf("empty input: got (%+v, %v), want (nil, nil)", c, err)
	}
}

// TestCalibrationParseOrderInsensitive: clause order does not matter;
// the canonical rendering is the same either way.
func TestCalibrationParseOrderInsensitive(t *testing.T) {
	a, err := ParseCalibration(CalibSchema + "; csr=0.5; seed=9; hybrid=0.25")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseCalibration(CalibSchema + "; seed=9; hybrid=0.25; csr=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("clause order changed canonical form:\n%q\n%q", a.String(), b.String())
	}
}
