// Package shard implements sogre-shard/v1, the versioned binary
// serialization for graphs and reordering permutations (plus raw
// sections such as snapshot metadata) — the interchange format the
// multi-process distributed layer moves over the wire, the serving
// engine snapshots warmed state into, and the bench suite loads
// million-node fixtures from in milliseconds instead of regenerating
// them.
//
// Layout (all integers little-endian):
//
//	magic   [8]byte  "sogresh1"
//	version uint32   (1)
//	count   uint32   number of sections
//	table   count x 32-byte entries:
//	          tag    [8]byte   NUL-padded ASCII section kind
//	          offset uint64    payload start, from file start
//	          length uint64    payload bytes (excludes padding)
//	          crc    uint64    FNV-1a 64 over the payload bytes
//	payloads, each 8-byte aligned, zero-padded between sections
//
// The section table sits at a fixed offset, so a reader with an
// io.ReaderAt seeks straight to any one section — loading a
// permutation does not touch the adjacency arrays. The decoder is
// total: truncated input, a wrong magic or version, out-of-bounds
// table entries, flipped payload bytes (checksum mismatch) and
// structurally inconsistent payloads all return typed errors; nothing
// panics, and no allocation is sized from a field before the field
// has been bounds-checked against the bytes actually present.
package shard

import (
	"fmt"
	"io"
	"os"
)

// FormatName identifies the format+version this package reads and
// writes.
const FormatName = "sogre-shard/v1"

// magic is the 8-byte file signature; the trailing '1' is the
// generation byte, bumped together with version on incompatible
// revisions.
const magic = "sogresh1"

// Version is the format version written and the only one accepted.
// Version negotiation rule (DESIGN.md §14): readers reject any other
// version outright — within a generation the section table is the
// compatibility surface, and unknown section tags are skipped, so
// additive evolution does not need a version bump.
const Version = 1

const (
	headerSize = 16
	entrySize  = 32
	tagSize    = 8
)

// Section tags.
const (
	TagGraph = "graph"
	TagPerm  = "perm"
	TagMeta  = "meta"
)

// shardError is a typed constant error; the package keeps sentinel
// errors var-free (ci.sh purity lint).
type shardError string

func (e shardError) Error() string { return string(e) }

const (
	// ErrMagic reports input that does not start with the format
	// signature.
	ErrMagic = shardError("shard: bad magic (not a sogre-shard file)")
	// ErrVersion reports a version this reader does not speak.
	ErrVersion = shardError("shard: unsupported format version")
	// ErrTruncated reports input shorter than its own structure claims.
	ErrTruncated = shardError("shard: truncated input")
	// ErrChecksum reports a section whose payload bytes do not match
	// the table's FNV-1a checksum.
	ErrChecksum = shardError("shard: section checksum mismatch")
	// ErrCorrupt reports a structurally inconsistent section payload.
	ErrCorrupt = shardError("shard: corrupt section payload")
	// ErrNoSection reports a requested section kind/index not present.
	ErrNoSection = shardError("shard: section not present")
)

// ChecksumBytes returns the FNV-1a 64 hash of b — the per-section
// integrity tag, also used by the distributed layer to verify whole
// encodings in transit.
func ChecksumBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// pad8 returns the number of zero bytes padding n up to 8 alignment.
func pad8(n int64) int64 { return (8 - n&7) & 7 }

// wsec is one buffered section awaiting layout.
type wsec struct {
	tag     string
	payload []byte
}

// Writer accumulates sections and streams them with a leading table —
// section sizes are known up front, so the write is a single forward
// pass over any io.Writer.
type Writer struct {
	secs []wsec
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// AddRaw appends an arbitrary payload under tag (1..8 bytes, no NUL).
func (w *Writer) AddRaw(tag string, payload []byte) error {
	if len(tag) == 0 || len(tag) > tagSize {
		return fmt.Errorf("shard: tag %q must be 1..%d bytes", tag, tagSize)
	}
	for i := 0; i < len(tag); i++ {
		if tag[i] == 0 {
			return fmt.Errorf("shard: tag %q contains NUL", tag)
		}
	}
	w.secs = append(w.secs, wsec{tag: tag, payload: payload})
	return nil
}

// Size returns the encoded byte size of the current section set.
func (w *Writer) Size() int64 {
	off := int64(headerSize + entrySize*len(w.secs))
	for _, s := range w.secs {
		off += pad8(off)
		off += int64(len(s.payload))
	}
	return off
}

// WriteTo streams the encoding: header, section table, payloads.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	var n int64
	emit := func(b []byte) error {
		k, err := out.Write(b)
		n += int64(k)
		return err
	}
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	putU32(hdr[8:], Version)
	putU32(hdr[12:], uint32(len(w.secs)))
	if err := emit(hdr); err != nil {
		return n, err
	}
	// Lay out payload offsets (after header+table, 8-aligned each).
	off := int64(headerSize + entrySize*len(w.secs))
	offsets := make([]int64, len(w.secs))
	for i, s := range w.secs {
		off += pad8(off)
		offsets[i] = off
		off += int64(len(s.payload))
	}
	entry := make([]byte, entrySize)
	for i, s := range w.secs {
		for j := range entry {
			entry[j] = 0
		}
		copy(entry[:tagSize], s.tag)
		putU64(entry[8:], uint64(offsets[i]))
		putU64(entry[16:], uint64(len(s.payload)))
		putU64(entry[24:], ChecksumBytes(s.payload))
		if err := emit(entry); err != nil {
			return n, err
		}
	}
	var zeros [8]byte
	pos := int64(headerSize + entrySize*len(w.secs))
	for _, s := range w.secs {
		if p := pad8(pos); p > 0 {
			if err := emit(zeros[:p]); err != nil {
				return n, err
			}
			pos += p
		}
		if err := emit(s.payload); err != nil {
			return n, err
		}
		pos += int64(len(s.payload))
	}
	return n, nil
}

// Encode renders the full encoding in memory.
func (w *Writer) Encode() []byte {
	buf := make([]byte, 0, w.Size())
	bw := &appendWriter{buf: buf}
	_, _ = w.WriteTo(bw) // appendWriter cannot fail
	return bw.buf
}

type appendWriter struct{ buf []byte }

func (a *appendWriter) Write(p []byte) (int, error) {
	a.buf = append(a.buf, p...)
	return len(p), nil
}

// WriteFile writes the encoding to path atomically (tmp + rename), so
// a crashed writer never leaves a half-written fixture behind.
func WriteFile(path string, w *Writer) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := w.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Section describes one table entry.
type Section struct {
	Tag    string
	Offset int64
	Length int64
	CRC    uint64
}

// File is a parsed shard file: the validated section table over a
// random-access reader. Section payloads are read (and
// checksum-verified) on demand, so consumers seek straight to what
// they need.
type File struct {
	r    io.ReaderAt
	size int64
	secs []Section
}

// Open parses and validates the header and section table of r
// (size bytes long) without touching any payload.
func Open(r io.ReaderAt, size int64) (*File, error) {
	hdr := make([]byte, headerSize)
	if size < headerSize {
		return nil, ErrTruncated
	}
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if string(hdr[:8]) != magic {
		return nil, ErrMagic
	}
	if v := getU32(hdr[8:]); v != Version {
		return nil, fmt.Errorf("%w: %d (reader speaks %d)", ErrVersion, v, Version)
	}
	count := int64(getU32(hdr[12:]))
	tableEnd := headerSize + entrySize*count
	if tableEnd > size {
		return nil, fmt.Errorf("%w: table of %d sections exceeds %d bytes", ErrTruncated, count, size)
	}
	table := make([]byte, entrySize*count)
	if _, err := r.ReadAt(table, headerSize); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	f := &File{r: r, size: size, secs: make([]Section, 0, count)}
	for i := int64(0); i < count; i++ {
		e := table[i*entrySize : (i+1)*entrySize]
		tag := e[:tagSize]
		end := tagSize
		for end > 0 && tag[end-1] == 0 {
			end--
		}
		s := Section{
			Tag:    string(tag[:end]),
			Offset: int64(getU64(e[8:])),
			Length: int64(getU64(e[16:])),
			CRC:    getU64(e[24:]),
		}
		if s.Tag == "" {
			return nil, fmt.Errorf("%w: empty tag in entry %d", ErrCorrupt, i)
		}
		if s.Offset < tableEnd || s.Length < 0 || s.Offset+s.Length < s.Offset || s.Offset+s.Length > size {
			return nil, fmt.Errorf("%w: section %q [%d,+%d) outside file of %d bytes",
				ErrTruncated, s.Tag, s.Offset, s.Length, size)
		}
		f.secs = append(f.secs, s)
	}
	return f, nil
}

// Decode parses an in-memory encoding.
func Decode(data []byte) (*File, error) {
	return Open(bytesReaderAt(data), int64(len(data)))
}

// OpenFile opens the shard file at path for seekable section access.
// The returned close function releases the underlying file handle once
// the caller is done loading sections.
func OpenFile(path string) (*File, func() error, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := fh.Stat()
	if err != nil {
		fh.Close()
		return nil, nil, err
	}
	f, err := Open(fh, st.Size())
	if err != nil {
		fh.Close()
		return nil, nil, err
	}
	return f, fh.Close, nil
}

type bytesReaderAt []byte

func (b bytesReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Sections returns the table (a copy).
func (f *File) Sections() []Section { return append([]Section(nil), f.secs...) }

// Count returns how many sections carry tag.
func (f *File) Count(tag string) int {
	n := 0
	for _, s := range f.secs {
		if s.Tag == tag {
			n++
		}
	}
	return n
}

// Raw reads and checksum-verifies the idx-th section tagged tag.
func (f *File) Raw(tag string, idx int) ([]byte, error) {
	for _, s := range f.secs {
		if s.Tag != tag {
			continue
		}
		if idx > 0 {
			idx--
			continue
		}
		buf := make([]byte, s.Length)
		if _, err := f.r.ReadAt(buf, s.Offset); err != nil {
			return nil, fmt.Errorf("%w: section %q: %v", ErrTruncated, tag, err)
		}
		if got := ChecksumBytes(buf); got != s.CRC {
			return nil, fmt.Errorf("%w: section %q: got %016x want %016x", ErrChecksum, tag, got, s.CRC)
		}
		return buf, nil
	}
	return nil, fmt.Errorf("%w: %q[%d]", ErrNoSection, tag, idx)
}

// -- little-endian helpers (no encoding/binary dependency keeps the
// inner loops inlinable) --

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}
