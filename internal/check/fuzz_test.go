package check

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/resil"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/venom"
	"repro/internal/wal"
)

// fuzzPatterns keeps fuzz iterations cheap while covering both the
// basic N:M shape and a genuinely blocked V:N:M one.
var fuzzPatterns = []pattern.VNM{pattern.NM(2, 4), pattern.New(4, 2, 8)}

// FuzzCompressDecompress drives arbitrary small weighted matrices
// (explicit zeros, duplicates-summed entries, negatives included)
// through prune -> compress -> decompress and split-to-conform,
// asserting the shared round-trip and reassembly oracles.
func FuzzCompressDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 64})
	f.Add([]byte{8, 0, 1, 7, 1, 0, 9, 3, 3, 0})     // explicit zero value
	f.Add([]byte{5, 2, 2, 10, 2, 2, 11, 2, 2, 200}) // duplicates summed
	f.Add([]byte{16, 0, 15, 33, 1, 14, 90, 15, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := CSRFromBytes(data, 32)
		for _, p := range fuzzPatterns {
			pruned, _, err := venom.PruneToConform(a, p)
			if err != nil {
				t.Fatalf("prune on valid input failed: %v", err)
			}
			if err := CompressRoundTrip(pruned, p); err != nil {
				t.Fatalf("pattern %v: %v", p, err)
			}
			if err := SplitReassembly(a, p); err != nil {
				t.Fatalf("pattern %v: %v", p, err)
			}
		}
	})
}

// FuzzReorderLossless checks that SOGRE reordering of an arbitrary
// graph always yields a bijective permutation whose application
// preserves the edge multiset — the paper's losslessness claim.
func FuzzReorderLossless(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{9, 0, 0, 1, 1, 5, 7, 8, 2})
	f.Add([]byte{40, 3, 9, 9, 12, 12, 3, 0, 39})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := GraphFromBytes(data, 40)
		res, err := core.Reorder(g.ToBitMatrix(), pattern.NM(2, 4), core.Options{MaxIter: 2})
		if err != nil {
			t.Fatalf("reorder on valid graph failed: %v", err)
		}
		if err := ReorderLossless(g, res); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzSpMMEquivalence runs the full differential kernel matrix on
// arbitrary decoded operands.
func FuzzSpMMEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 32})
	f.Add([]byte{6, 0, 5, 64, 5, 0, 64, 2, 3, 0})
	f.Add([]byte{17, 16, 16, 255, 0, 16, 128, 7, 7, 33})
	f.Add([]byte{24, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := CSRFromBytes(data, 24)
		b := RandomDense(a.N, 5, 1, int64(len(data)))
		for _, p := range fuzzPatterns {
			if err := SpMMEquivalence(a, b, p, DefaultTol()); err != nil {
				t.Fatalf("pattern %v: %v", p, err)
			}
		}
	})
}

// FuzzParallelSerialEquivalence drives arbitrary decoded operands
// through every parallel kernel at several worker counts and tile
// targets, asserting bit-identity with the serial references — the
// scheduler's determinism contract under adversarial sparsity
// patterns (empty rows, heavy rows, duplicates, explicit zeros). The
// seed corpus reuses the regime generators: one seed per
// density/degree regime, re-encoded through the total CSR decoder's
// byte format.
func FuzzParallelSerialEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 32})
	// Regime-derived seeds: sample each regime family and re-encode
	// its entries as decoder bytes (row, col, value triples).
	for i, rg := range Regimes() {
		a := rg.RandomCSR(24, int64(i+1), true)
		enc := []byte{byte(a.N)}
		for r := 0; r < a.N && len(enc) < 120; r++ {
			cols, vals := a.Row(r)
			for k, c := range cols {
				vb := byte(math.Abs(float64(vals[k])) * 32)
				if vals[k] < 0 {
					vb |= 1
				}
				enc = append(enc, byte(r), byte(c), vb)
			}
		}
		f.Add(enc)
	}
	workers := []int{1, 2, 3}
	targets := []int64{1, 16, 0}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := CSRFromBytes(data, 24)
		b := RandomDense(a.N, 5, 1, int64(len(data)))
		for _, p := range fuzzPatterns {
			if err := ParallelEquivalence(a, b, p, workers, targets); err != nil {
				t.Fatalf("pattern %v: %v", p, err)
			}
		}
	})
}

// FuzzMatrixMarketRoundTrip checks the MatrixMarket code path with the
// shared oracles: anything the parser accepts must validate, survive a
// write/re-read round trip with its exact edge multiset, and agree
// with the edge-list code path.
func FuzzMatrixMarketRoundTrip(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n3 3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 0.5\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n1 1 0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n0 0 0\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := graph.ReadMatrixMarket(strings.NewReader(input))
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parser accepted invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := graph.WriteMatrixMarket(&buf, g); err != nil {
			t.Fatalf("cannot serialize accepted graph: %v", err)
		}
		g2, err := graph.ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("cannot re-parse own output: %v", err)
		}
		if err := graphsEqual(g, g2); err != nil {
			t.Fatalf("MatrixMarket round trip: %v", err)
		}
		var el bytes.Buffer
		if err := graph.WriteEdgeList(&el, g); err != nil {
			t.Fatalf("cannot write edge list: %v", err)
		}
		g3, err := graph.ReadEdgeList(bytes.NewReader(el.Bytes()))
		if err != nil {
			t.Fatalf("cannot re-read edge list: %v", err)
		}
		// The "# n=<N>" header makes the edge-list round trip exact,
		// isolated trailing vertices included.
		if err := graphsEqual(g, g3); err != nil {
			t.Fatalf("edge list round trip: %v", err)
		}
	})
}

// FuzzServeRequestParse asserts the serving wire decoder is total
// (no panic on any byte string) and that parse∘render is a fixed
// point: any accepted request re-renders to bytes that parse back to
// an equal request with identical rendered form — the property the
// loadgen replay and the serve smoke gate rely on when request
// scripts cross a process boundary.
func FuzzServeRequestParse(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{"op":"embed","nodes":[0]}`))
	f.Add([]byte(`{"op":"classify","nodes":[3,1,2]}`))
	f.Add([]byte(`{"op":"embed","nodes":[1,1]}`))     // duplicate -> error
	f.Add([]byte(`{"op":"embed","nodes":[-1]}`))      // negative -> error
	f.Add([]byte(`{"op":"embed","nodes":[]}`))        // empty -> error
	f.Add([]byte(`{"op":"destroy","nodes":[1]}`))     // unknown op -> error
	f.Add([]byte(`{"op":"embed","nodes":[1],"x":1}`)) // unknown field -> error
	f.Add([]byte(`{"op":"embed","nodes":[1]}trail`))  // trailing bytes -> error
	f.Add([]byte(`{"op":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := serve.ParseRequest(data)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		canon := r.Render()
		r2, err := serve.ParseRequest(canon)
		if err != nil {
			t.Fatalf("rendered form %q of accepted request %q rejected: %v", canon, data, err)
		}
		if !r2.Equal(r) {
			t.Fatalf("round trip changed request: %+v -> %+v", r, r2)
		}
		if got := r2.Render(); !bytes.Equal(got, canon) {
			t.Fatalf("rendered form not a fixed point: %q -> %q", canon, got)
		}
	})
}

// graphsEqual compares two graphs' exact adjacency structure.
func graphsEqual(a, b *graph.Graph) error {
	if a.N() != b.N() {
		return fmt.Errorf("vertex counts differ: %d vs %d", a.N(), b.N())
	}
	for u := 0; u < a.N(); u++ {
		na, nb := a.Neighbors(u), b.Neighbors(u)
		if len(na) != len(nb) {
			return fmt.Errorf("degree of %d differs: %d vs %d", u, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				return fmt.Errorf("neighbor %d of %d differs: %d vs %d", i, u, na[i], nb[i])
			}
		}
	}
	return nil
}

// FuzzCalibrationParse asserts the calibration-table grammar never
// panics and that its canonical rendering is a fixed point: any
// accepted table re-parses from Calibration.String() to a table with
// the identical canonical form — the replay contract the planner smoke
// gate relies on when two bench processes share one table file.
func FuzzCalibrationParse(f *testing.F) {
	f.Add("")
	f.Add(plan.CalibSchema + "; csr=0.5")
	f.Add(plan.CalibSchema + "; seed=42; workers=4; target=1024; csr=0.5; hybrid=0.08125")
	f.Add(plan.CalibSchema + "; hybrid=1.25; csr=0.17; seed=9")
	f.Add(plan.CalibSchema + "; csr=1; csr=2") // duplicate kernel -> error
	f.Add(plan.CalibSchema + "; warp-speed=1") // unknown kernel -> error
	f.Add(plan.CalibSchema + "; csr=-1")       // non-positive coefficient -> error
	f.Add("sogre-calib/v0; csr=1")             // wrong schema -> error
	// A superseded v1 table (serial/parallel classes) must be rejected.
	f.Add("sogre-calib/v1; seed=9; csr-serial=0.5; csr-parallel=0.2; hybrid-serial=1.5; hybrid-parallel=0.7")
	f.Fuzz(func(t *testing.T, s string) {
		c, err := plan.ParseCalibration(s)
		if err != nil {
			return
		}
		if strings.HasPrefix(strings.TrimSpace(s), "sogre-calib/v1") {
			t.Fatalf("v1 table %q accepted by the %s parser", s, plan.CalibSchema)
		}
		if c == nil {
			if strings.TrimSpace(s) != "" {
				t.Fatalf("non-empty input %q parsed to a nil table without error", s)
			}
			return
		}
		canon := c.String()
		c2, err := plan.ParseCalibration(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted table %q rejected: %v", canon, s, err)
		}
		if got := c2.String(); got != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, got)
		}
		if c2.Seed != c.Seed || c2.Workers != c.Workers || c2.TileTarget != c.TileTarget || len(c2.Coeffs) != len(c.Coeffs) {
			t.Fatalf("round trip changed table: %+v -> %+v", c, c2)
		}
	})
}

// FuzzFaultPlanParse asserts the fault-plan grammar never panics and
// that its canonical rendering is a fixed point: any accepted plan
// re-parses from Plan.String() to a plan with the identical canonical
// form (the property the CI smoke gate relies on when it replays a
// plan across processes).
func FuzzFaultPlanParse(f *testing.F) {
	f.Add("")
	f.Add("seed=42")
	f.Add("seed=7; crash@tile:3")
	f.Add("straggler@sample:2:5ms; corrupt@partition/xfer:1")
	f.Add("transient@venom/meta:1, crash@eval:2")
	f.Add("crash@a:1;crash@a:1") // duplicate event -> error
	f.Add("delay@x:1")           // unknown kind -> error
	f.Add("crash@bad site:1")    // bad site charset -> error
	f.Add("crash@s:1:5ms")       // delay on non-straggler -> error
	f.Fuzz(func(t *testing.T, s string) {
		p, err := resil.ParsePlan(s)
		if err != nil {
			return
		}
		canon := p.String()
		p2, err := resil.ParsePlan(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted plan %q rejected: %v", canon, s, err)
		}
		if got := p2.String(); got != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, got)
		}
		if (p == nil) != (p2 == nil) {
			t.Fatalf("nil-ness changed across round trip for %q", s)
		}
		if p != nil {
			if p2.Seed != p.Seed || len(p2.Events) != len(p.Events) {
				t.Fatalf("round trip changed plan: %+v -> %+v", p, p2)
			}
		}
	})
}

// FuzzShardFormat drives arbitrary bytes — seeded with valid
// encodings and systematic corruptions of them — through the
// sogre-shard/v1 decoder. The decoder must be total: every input
// either yields typed loaders that round-trip or a typed error;
// nothing panics and nothing allocates from an unvalidated count. A
// successfully decoded graph must survive re-encoding bit-identically
// (decode is a right inverse of encode on the decoder's image).
func FuzzShardFormat(f *testing.F) {
	g := graph.RMAT(6, 4, 0.57, 0.19, 0.19, 11)
	w := shard.NewWriter()
	if err := w.AddGraph(g); err != nil {
		f.Fatal(err)
	}
	if err := w.AddPerm([]int{1, 0, 2}); err != nil {
		f.Fatal(err)
	}
	if err := w.AddRaw(shard.TagMeta, []byte("seed")); err != nil {
		f.Fatal(err)
	}
	valid := w.Encode()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("sogresh1"))
	for _, cut := range []int{1, 8, 15, 16, 40, len(valid) / 2, len(valid) - 1} {
		if cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	for _, flip := range []int{0, 8, 12, 20, 40, len(valid) - 3} {
		c := append([]byte(nil), valid...)
		c[flip] ^= 0x40
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := shard.Decode(data)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		for _, s := range sf.Sections() {
			var serr error
			switch s.Tag {
			case shard.TagGraph:
				var dg *graph.Graph
				dg, serr = sf.Graph(0)
				if serr == nil {
					re, eerr := shard.EncodeGraph(dg)
					if eerr != nil {
						t.Fatalf("re-encode of decoded graph failed: %v", eerr)
					}
					rg, derr := shard.DecodeGraph(re)
					if derr != nil {
						t.Fatalf("re-decode failed: %v", derr)
					}
					if err := graphsEqual(dg, rg); err != nil {
						t.Fatalf("decode/encode not idempotent: %v", err)
					}
				}
			case shard.TagPerm:
				_, serr = sf.Perm(0)
			default:
				_, serr = sf.Raw(s.Tag, 0)
			}
			if serr != nil {
				// Typed failure is fine; the contract is no panic and
				// no accepted-but-inconsistent object.
				continue
			}
		}
	})
}

// FuzzWALReplay drives arbitrary bytes through the write-ahead log
// reader (wal.Replay, the pure core of wal.Open): no input panics;
// whatever is accepted is a stable prefix — replaying any truncation
// of the input yields a prefix of the same records (the torn-tail
// recovery guarantee); and any record payload the batch codec accepts
// re-encodes to the identical bytes (the encode/decode fixed point
// recovery relies on to replay exactly what was acknowledged).
func FuzzWALReplay(f *testing.F) {
	// Seed with a genuine log written through the real append path.
	dir := f.TempDir()
	log, _, err := wal.Open(dir+"/seed.wal", 0xfeed)
	if err != nil {
		f.Fatal(err)
	}
	payloads := [][]byte{
		wal.EncodeBatch([]dyn.Mutation{{Op: dyn.OpInsert, U: 3, V: 9}}),
		wal.EncodeBatch([]dyn.Mutation{{Op: dyn.OpDelete, U: 1, V: 2}, {Op: dyn.OpInsert, U: 0, V: 7}}),
		{},
	}
	for _, p := range payloads {
		if _, err := log.Append(p); err != nil {
			f.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(dir + "/seed.wal")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("sogrewal"))
	for _, cut := range []int{1, 8, 23, 24, 30, len(valid) / 2, len(valid) - 1} {
		if cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	for _, flip := range []int{0, 9, 16, 24, 30, len(valid) - 2} {
		c := append([]byte(nil), valid...)
		c[flip] ^= 0x40
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := wal.Replay(data, 0)
		if err != nil {
			return // header damage: typed rejection, no panic
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("record %d has seq %d: accepted records must be gapless from 1", i, r.Seq)
			}
			ops, derr := wal.DecodeBatch(r.Payload)
			if derr != nil {
				continue // payload is not a batch; replay-level claim only
			}
			if re := wal.EncodeBatch(ops); !bytes.Equal(re, r.Payload) {
				t.Fatalf("record %d: encode(decode(payload)) changed bytes", i)
			}
		}
		// Torn-tail stability: any truncation replays to a prefix of
		// the same records.
		cut := len(data) / 2
		prefix, perr := wal.Replay(data[:cut], 0)
		if perr != nil {
			return // cut inside the header; rejection is the contract
		}
		if len(prefix) > len(recs) {
			t.Fatalf("truncation yielded MORE records (%d > %d)", len(prefix), len(recs))
		}
		for i, r := range prefix {
			if r.Seq != recs[i].Seq || !bytes.Equal(r.Payload, recs[i].Payload) {
				t.Fatalf("truncated replay record %d differs from full replay", i)
			}
		}
	})
}
