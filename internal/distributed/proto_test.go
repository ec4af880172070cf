package distributed

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// gobRoundTrip encodes v with a fresh gob encoder, decodes it into
// out, and returns the encoded size.
func gobRoundTrip(t *testing.T, v, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFloatsRoundTripBitExact: every float32 bit pattern crosses the
// wire unchanged — NaN payloads (quiet, signalling, negative), both
// zeros, subnormals and infinities included — and empty or nil
// payloads decode to an empty one.
func TestFloatsRoundTripBitExact(t *testing.T) {
	special := []uint32{
		0x7fc00000, 0x7fa00001, 0xffc12345, 0x7f800001, // NaN payloads
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x807fffff, 0x00400000, // subnormals
		0x7f800000, 0xff800000, // ±Inf
		0x3f800000, 0x7f7fffff, 0xff7fffff, // 1, ±MaxFloat32
	}
	payload := make(Floats, len(special))
	for i, u := range special {
		payload[i] = math.Float32frombits(u)
	}
	for _, in := range []Floats{payload, {}, nil, payload[:1]} {
		var got ComputeReply
		gobRoundTrip(t, ComputeReply{Rows: []int{1}, Data: in, Cols: 1, Checksum: 7}, &got)
		if len(got.Data) != len(in) {
			t.Fatalf("decoded %d floats, sent %d", len(got.Data), len(in))
		}
		for i := range in {
			if a, b := math.Float32bits(in[i]), math.Float32bits(got.Data[i]); a != b {
				t.Fatalf("element %d: sent bits %#08x, decoded %#08x", i, a, b)
			}
		}
		if got.Checksum != 7 || got.Cols != 1 {
			t.Fatalf("sibling fields lost: %+v", got)
		}
	}
}

// TestFloatsRejectsOddLength: a byte string that is not a whole number
// of float32s is a decode error, not a panic or a truncated payload.
func TestFloatsRejectsOddLength(t *testing.T) {
	for _, n := range []int{1, 3, 5, 4097} {
		var f Floats
		err := f.GobDecode(make([]byte, n))
		if err == nil || !strings.Contains(err.Error(), "not a multiple of 4") {
			t.Fatalf("%d-byte payload: err = %v, want a length error", n, err)
		}
	}
}

// TestLoadArgsWireSize: a gob-encoded LoadArgs costs its raw float
// bytes plus a small fixed overhead. gob's per-element []float32
// encoding spends ~6 bytes on a typical float32, so this bound also
// proves the raw-bytes encoding is the one in use.
func TestLoadArgsWireSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make(Floats, 64*256)
	for i := range data {
		data[i] = rng.Float32()
	}
	args := LoadArgs{GraphShard: []byte("shard"), GraphSum: 1, BRows: 256, BCols: 64, BData: data, BSum: 2}
	var got LoadArgs
	size := gobRoundTrip(t, args, &got)
	if limit := 4*len(data) + 1024; size > limit {
		t.Fatalf("encoded LoadArgs is %d bytes, want <= %d", size, limit)
	}
	for i := range data {
		if math.Float32bits(got.BData[i]) != math.Float32bits(data[i]) {
			t.Fatalf("BData[%d] changed in transit", i)
		}
	}
}
