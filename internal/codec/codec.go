// Package codec is the shared substrate for HyperProv's deterministic,
// versioned, length-prefixed binary encodings. It grew out of the recovery
// checkpoint codec (PR 3 measured it ~10x faster to decode than
// encoding/json) and factors that codec's style — ASCII magic, uvarint
// framing, length-prefixed byte strings, CRC-32C trailers, and a
// sticky-error decode cursor — into primitives every hot-path codec
// (envelope, block, rwset, wire frames) builds on.
//
// The package has three parts:
//
//   - Encoding: append-style helpers over []byte plus a sync.Pool-backed
//     Buffer so steady-state encode paths (block append, frame write)
//     allocate no per-call scratch.
//   - Digests: Hasher, which feeds SHA-256 the bytes the append helpers
//     would produce, for encodings that exist only to be hashed (signing
//     preimages).
//   - Decoding: Dec, a bounds-checked cursor that records the first error
//     and turns every subsequent read into a no-op, so codecs read a whole
//     record linearly and check the error once.
//
// Decode failures are always one of the structured sentinels (ErrTruncated,
// ErrMalformed, ErrChecksum) wrapped with context, never a panic and never
// an unbounded allocation — the same hostile-input contract the checkpoint
// codec's fuzz target enforces.
package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"math/bits"
	"sync"
	"time"
)

// Structured decode sentinels. Every decode error wraps exactly one of
// these so callers (and fuzz targets) can classify failures with errors.Is.
var (
	// ErrTruncated reports input that ended before the structure did.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrMalformed reports input that is self-inconsistent: bad magic,
	// unsupported version, counts exceeding the remaining bytes, trailing
	// garbage, or out-of-range values.
	ErrMalformed = errors.New("codec: malformed input")
	// ErrChecksum reports a record whose CRC-32C trailer does not match
	// its body.
	ErrChecksum = errors.New("codec: checksum mismatch")
)

// castagnoli is the CRC-32C table shared by every framed codec. Castagnoli
// has hardware support on amd64/arm64, so the integrity check stays cheap
// even on the block append path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of p.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// AppendChecksum appends the big-endian CRC-32C of buf[start:] to buf.
// Codecs call it last, covering everything after the magic.
func AppendChecksum(buf []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(buf, Checksum(buf[start:]))
}

// VerifyChecksum splits body||crc32c and verifies the trailer. It returns
// the body on success and ErrTruncated/ErrChecksum otherwise.
func VerifyChecksum(p []byte) ([]byte, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: %d bytes, need 4-byte checksum", ErrTruncated, len(p))
	}
	body, trailer := p[:len(p)-4], p[len(p)-4:]
	if got, want := Checksum(body), binary.BigEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, want)
	}
	return body, nil
}

// --- append-style encoding helpers -----------------------------------------

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendVarint appends v zigzag-encoded.
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// AppendBytes appends a length-prefixed byte string. nil and empty encode
// identically (length 0) — decoders return nil for zero length, so codecs
// built on these helpers normalize empty to nil across a round-trip.
func AppendBytes(buf, p []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	return append(buf, p...)
}

// The Size* functions return exactly what the matching Append* function
// appends, for encoders that allocate their buffer once, at its final size.

// SizeUvarint is the encoded size of AppendUvarint(v).
func SizeUvarint(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// SizeVarint is the encoded size of AppendVarint(v).
func SizeVarint(v int64) int { return SizeUvarint(uint64(v<<1) ^ uint64(v>>63)) }

// SizeBytes is the encoded size of a length-prefixed byte string (or
// string) of n bytes.
func SizeBytes(n int) int { return SizeUvarint(uint64(n)) + n }

// SizeTime is the encoded size of AppendTime(t).
func SizeTime(t time.Time) int {
	if t.IsZero() {
		return 1
	}
	return 1 + SizeVarint(t.Unix()) + SizeUvarint(uint64(t.Nanosecond()))
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBool appends a single 0/1 byte.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendTime appends a timestamp as a presence byte plus zigzag seconds and
// uvarint nanoseconds. The zero time encodes as the single byte 0, so
// "unset" survives a round-trip exactly. Monotonic clock readings and zone
// names are deliberately dropped: decode always yields UTC, which is what
// makes re-encoding deterministic.
func AppendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendVarint(buf, t.Unix())
	return binary.AppendUvarint(buf, uint64(t.Nanosecond()))
}

// HashFields returns the SHA-256 of the fields, each preceded by its
// length, so no two distinct field lists collide by sliding bytes across a
// field boundary. It is the digest behind in-memory identities of multi-field
// values (signature-cache keys, endorsement result digests); nothing
// persists it.
func HashFields(fields ...[]byte) [sha256.Size]byte {
	h := NewHasher()
	for _, f := range fields {
		h.Raw(binary.BigEndian.AppendUint64(h.scratch[:0], uint64(len(f))))
		h.Raw(f)
	}
	return h.Sum()
}

// --- streaming digests -------------------------------------------------------

// Hasher streams a canonical encoding into SHA-256 without materializing
// it: each method feeds the hash exactly the bytes the Append* function of
// the same name would append, so Sum equals sha256.Sum256 of the appended
// encoding. Signing preimages are hashed this way — the bytes they are
// made of already exist in the structure being signed, and a copy built
// only to be hashed is pure heap churn. Hashers are pooled: obtain one with
// NewHasher and finish with Sum, after which it must not be used.
type Hasher struct {
	h       hash.Hash
	scratch [sha256.BlockSize]byte
}

var hasherPool = sync.Pool{
	New: func() any { return &Hasher{h: sha256.New()} },
}

// NewHasher returns an empty pooled hasher.
func NewHasher() *Hasher {
	h := hasherPool.Get().(*Hasher)
	h.h.Reset()
	return h
}

// Sum returns the SHA-256 of everything written and recycles the hasher.
func (h *Hasher) Sum() [sha256.Size]byte {
	var sum [sha256.Size]byte
	copy(sum[:], h.h.Sum(h.scratch[:0]))
	hasherPool.Put(h)
	return sum
}

// Raw feeds p as is (a magic, an already-encoded field).
func (h *Hasher) Raw(p []byte) { h.h.Write(p) }

// Byte feeds one byte (a version, a flag).
func (h *Hasher) Byte(b byte) { h.h.Write(append(h.scratch[:0], b)) }

// Uvarint feeds what AppendUvarint appends.
func (h *Hasher) Uvarint(v uint64) { h.h.Write(binary.AppendUvarint(h.scratch[:0], v)) }

// Varint feeds what AppendVarint appends.
func (h *Hasher) Varint(v int64) { h.h.Write(binary.AppendVarint(h.scratch[:0], v)) }

// Bytes feeds what AppendBytes appends.
func (h *Hasher) Bytes(p []byte) {
	h.Uvarint(uint64(len(p)))
	h.h.Write(p)
}

// String feeds what AppendString appends. The string passes through the
// scratch block: converting it to a byte slice would copy it to the heap.
func (h *Hasher) String(s string) {
	h.Uvarint(uint64(len(s)))
	for len(s) > 0 {
		n := copy(h.scratch[:], s)
		h.h.Write(h.scratch[:n])
		s = s[n:]
	}
}

// Time feeds what AppendTime appends.
func (h *Hasher) Time(t time.Time) { h.h.Write(AppendTime(h.scratch[:0], t)) }

// --- pooled encode buffers --------------------------------------------------

// Buffer is a pooled byte slice for encode paths. Typical use:
//
//	buf := codec.GetBuffer()
//	defer buf.Release()
//	buf.B = appendSomething(buf.B[:0], ...)
//	w.Write(buf.B)
//
// The backing array is recycled through a sync.Pool, so steady-state
// encoders that release their buffers allocate nothing per call once the
// pool has warmed up to the working-set record size.
type Buffer struct {
	B []byte
}

var bufferPool = sync.Pool{
	New: func() any { return &Buffer{B: make([]byte, 0, 4096)} },
}

// GetBuffer returns a pooled buffer with zero length and whatever capacity
// its previous life grew to.
func GetBuffer() *Buffer {
	buf := bufferPool.Get().(*Buffer)
	buf.B = buf.B[:0]
	return buf
}

// Release returns the buffer to the pool. The caller must not touch buf.B
// afterwards; bytes that need to outlive the buffer must be copied out
// first. Oversized one-off buffers are dropped instead of pooled so a
// single pathological record cannot pin megabytes in the pool.
func (b *Buffer) Release() {
	const maxPooled = 1 << 20
	if cap(b.B) > maxPooled {
		return
	}
	bufferPool.Put(b)
}

// Grow ensures capacity for n more bytes without changing the length.
func (b *Buffer) Grow(n int) {
	if cap(b.B)-len(b.B) >= n {
		return
	}
	grown := make([]byte, len(b.B), len(b.B)+n)
	copy(grown, b.B)
	b.B = grown
}

// --- sticky-error decode cursor ---------------------------------------------

// Dec is a bounds-checked cursor over an encoded record. The first failed
// read records the error and every later read returns a zero value, so
// codecs decode a whole structure linearly and check Err once at the end —
// the same shape as the checkpoint codec's decoder.
type Dec struct {
	buf []byte
	err error
}

// NewDec returns a cursor over p.
func NewDec(p []byte) *Dec { return &Dec{buf: p} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Dec) Len() int { return len(d.buf) }

// Fail records err (if none is recorded yet) and poisons the cursor.
func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish reports an error if the cursor failed or if input remains — every
// HyperProv record is exactly one structure, so trailing bytes are damage.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after record", ErrMalformed, len(d.buf))
	}
	return nil
}

// Magic consumes and verifies a magic prefix plus a version byte, failing
// with ErrTruncated/ErrMalformed as appropriate. It returns the version so
// callers can range-check against what they support.
func (d *Dec) Magic(magic []byte) byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < len(magic)+1 {
		d.err = fmt.Errorf("%w: %d bytes, need %d-byte magic+version", ErrTruncated, len(d.buf), len(magic)+1)
		return 0
	}
	for i, c := range magic {
		if d.buf[i] != c {
			d.err = fmt.Errorf("%w: bad magic %q", ErrMalformed, d.buf[:len(magic)])
			return 0
		}
	}
	ver := d.buf[len(magic)]
	d.buf = d.buf[len(magic)+1:]
	return ver
}

// Uvarint reads an unsigned LEB128 value.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad uvarint", ErrTruncated)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zigzag-encoded value.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad varint", ErrTruncated)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Count reads an element count and sanity-bounds it by the bytes remaining
// (each element needs at least one byte), so hostile input cannot provoke
// a huge make() before the truncation is noticed.
func (d *Dec) Count() int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.buf)) {
		d.err = fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrMalformed, v, len(d.buf))
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string into a fresh slice. Zero
// length yields nil.
func (d *Dec) Bytes() []byte {
	p := d.BytesShared()
	if p == nil {
		return nil
	}
	return append([]byte(nil), p...)
}

// BytesShared reads a length-prefixed byte string aliasing the input
// buffer — no copy. Callers must only use it when the decoded structure is
// allowed to share the input's lifetime. Zero length yields nil.
func (d *Dec) BytesShared() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("%w: byte string of %d, %d remaining", ErrTruncated, n, len(d.buf))
		return nil
	}
	if n == 0 {
		return nil
	}
	p := d.buf[:n:n]
	d.buf = d.buf[n:]
	return p
}

// Rest consumes and returns every unread byte, aliasing the input — for a
// record whose last field is itself a self-delimiting encoding (a block
// behind an op byte) that the caller hands to that encoding's own decoder.
// A failed cursor yields nil.
func (d *Dec) Rest() []byte {
	if d.err != nil {
		return nil
	}
	p := d.buf
	d.buf = nil
	return p
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	return string(d.BytesShared())
}

// Byte reads a single byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.err = fmt.Errorf("%w: need 1 byte", ErrTruncated)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// Bool reads a 0/1 byte, rejecting other values so encodings stay
// canonical (exactly one byte form per value).
func (d *Dec) Bool() bool {
	b := d.Byte()
	if d.err != nil {
		return false
	}
	if b > 1 {
		d.err = fmt.Errorf("%w: bool byte %#x", ErrMalformed, b)
		return false
	}
	return b == 1
}

// Time reads a timestamp written by AppendTime: zero time for presence
// byte 0, otherwise UTC seconds+nanoseconds.
func (d *Dec) Time() time.Time {
	if !d.Bool() {
		return time.Time{}
	}
	sec := d.Varint()
	nsec := d.Uvarint()
	if d.err != nil {
		return time.Time{}
	}
	if nsec >= uint64(time.Second) {
		d.err = fmt.Errorf("%w: %d nanoseconds", ErrMalformed, nsec)
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// MaxCount guards explicit caller-side allocation decisions; it is the
// largest count Dec.Count can ever return (input length bound).
const MaxCount = math.MaxInt32
