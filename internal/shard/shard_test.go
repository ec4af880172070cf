package shard

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.RMAT(8, 8, 0.57, 0.19, 0.19, 42)
}

func graphsIdentical(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape differs: n %d/%d arcs %d/%d", a.N(), b.N(), a.NumEdges(), b.NumEdges())
	}
	arp, aci, aw := a.CSR()
	brp, bci, bw := b.CSR()
	for i := range arp {
		if arp[i] != brp[i] {
			t.Fatalf("rowPtr[%d]: %d != %d", i, arp[i], brp[i])
		}
	}
	for i := range aci {
		if aci[i] != bci[i] {
			t.Fatalf("colIdx[%d]: %d != %d", i, aci[i], bci[i])
		}
	}
	if (aw == nil) != (bw == nil) {
		t.Fatalf("weights presence differs")
	}
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatalf("weights[%d]: %v != %v", i, aw[i], bw[i])
		}
	}
}

// TestRoundTripAllSections pins the full multi-section round trip:
// graph + perm + raw blob in one file, each decoded back bit-identical
// through the seekable reader.
func TestRoundTripAllSections(t *testing.T) {
	g := testGraph(t)
	perm := make([]int, g.N())
	for i := range perm {
		perm[i] = (i*7 + 3) % len(perm)
	}
	// (i*7+3) mod 256 is a bijection because gcd(7,256)=1.

	w := NewWriter()
	if err := w.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	if err := w.AddPerm(perm); err != nil {
		t.Fatal(err)
	}
	if err := w.AddRaw(TagMeta, []byte(`{"source":"test"}`)); err != nil {
		t.Fatal(err)
	}
	enc := w.Encode()
	if int64(len(enc)) != w.Size() {
		t.Fatalf("Encode %d bytes, Size says %d", len(enc), w.Size())
	}
	var streamed bytes.Buffer
	if n, err := w.WriteTo(&streamed); err != nil || n != int64(len(enc)) {
		t.Fatalf("WriteTo n=%d err=%v", n, err)
	}
	if !bytes.Equal(streamed.Bytes(), enc) {
		t.Fatal("WriteTo and Encode disagree")
	}

	f, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := f.Graph(0)
	if err != nil {
		t.Fatal(err)
	}
	graphsIdentical(t, g, g2)
	p2, err := f.Perm(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range perm {
		if p2[i] != perm[i] {
			t.Fatalf("perm[%d]: %d != %d", i, p2[i], perm[i])
		}
	}
	raw, err := f.Raw(TagMeta, 0)
	if err != nil || string(raw) != `{"source":"test"}` {
		t.Fatalf("raw: %q err=%v", raw, err)
	}
	// Section alignment: every payload offset is 8-aligned.
	for _, s := range f.Sections() {
		if s.Offset%8 != 0 {
			t.Fatalf("section %q at unaligned offset %d", s.Tag, s.Offset)
		}
	}
}

// TestFileRoundTrip exercises the atomic writer and the seekable
// file reader.
func TestFileRoundTrip(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.shard")
	if err := WriteGraphFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsIdentical(t, g, g2)
}

// TestDecodeRejectsDamage: the decoder is total — truncation, bad
// magic, unknown versions, table lies, and payload bit flips all
// surface as the right typed error, never a panic or a bad object.
func TestDecodeRejectsDamage(t *testing.T) {
	g := testGraph(t)
	enc, err := EncodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation point fails cleanly (decode or section load).
	for cut := 0; cut < len(enc); cut += 97 {
		f, err := Decode(enc[:cut])
		if err == nil {
			if _, err = f.Graph(0); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	}

	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := Decode(bad); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad magic: %v", err)
	}

	bad = append([]byte(nil), enc...)
	bad[8] = 99 // version field
	if _, err := Decode(bad); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: %v", err)
	}

	// Flip one payload byte: table parses, section load detects it.
	bad = append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0x01
	f, err := Decode(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Graph(0); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped payload: %v", err)
	}

	// A table entry pointing past the file is truncation.
	bad = append([]byte(nil), enc...)
	putU64(bad[16+16:], uint64(len(bad))) // entry 0 length field
	if _, err := Decode(bad); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying table: %v", err)
	}

	// Missing sections are typed.
	f, err = Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Perm(0); !errors.Is(err, ErrNoSection) {
		t.Fatalf("missing perm: %v", err)
	}
	if _, err := f.Graph(1); !errors.Is(err, ErrNoSection) {
		t.Fatalf("graph index past count: %v", err)
	}
}

// TestCorruptStructuredPayloads: payloads that parse as bytes but lie
// structurally (non-bijective perms, out-of-range columns) are
// ErrCorrupt. The checksum must be recomputed for the tampered bytes
// so the structural validators — not the CRC — do the rejecting.
func TestCorruptStructuredPayloads(t *testing.T) {
	reseal := func(enc []byte, f *File, tag string, mutate func(payload []byte)) []byte {
		t.Helper()
		bad := append([]byte(nil), enc...)
		for i, s := range f.secs {
			if s.Tag != tag {
				continue
			}
			mutate(bad[s.Offset : s.Offset+s.Length])
			putU64(bad[headerSize+i*entrySize+24:], ChecksumBytes(bad[s.Offset:s.Offset+s.Length]))
			return bad
		}
		t.Fatalf("no %q section", tag)
		return nil
	}

	w := NewWriter()
	if err := w.AddGraph(testGraph(t)); err != nil {
		t.Fatal(err)
	}
	if err := w.AddPerm([]int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	enc := w.Encode()
	f, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}

	// Duplicate permutation entry.
	bad := reseal(enc, f, TagPerm, func(p []byte) { putU64(p[8:], uint64(1)); putU64(p[16:], uint64(1)) })
	bf, err := Decode(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bf.Perm(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate perm entries: %v", err)
	}

	// Column id out of range in the graph section.
	bad = reseal(enc, f, TagGraph, func(p []byte) {
		n := getU64(p)
		colOff := 24 + 4*(int(n)+1)
		putU32(p[colOff:], uint32(n)+5)
	})
	bf, err = Decode(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bf.Graph(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range column: %v", err)
	}
}

// TestChecksumBytesReference pins the FNV-1a constants against
// known-answer vectors so the on-disk CRCs stay stable across
// refactors.
func TestChecksumBytesReference(t *testing.T) {
	if got := ChecksumBytes(nil); got != 14695981039346656037 {
		t.Fatalf("empty: %d", got)
	}
	if got := ChecksumBytes([]byte("a")); got != 0xaf63dc4c8601ec8c {
		t.Fatalf("fnv1a(a) = %x", got)
	}
}
