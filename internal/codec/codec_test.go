package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"
)

// TestRoundTripPrimitives drives every append helper through Dec and back.
func TestRoundTripPrimitives(t *testing.T) {
	ts := time.Unix(1700000123, 456789).UTC()
	var buf []byte
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, 1<<40)
	buf = AppendVarint(buf, -12345)
	buf = AppendBytes(buf, []byte("payload"))
	buf = AppendBytes(buf, nil)
	buf = AppendString(buf, "hello")
	buf = AppendString(buf, "")
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)
	buf = AppendTime(buf, ts)
	buf = AppendTime(buf, time.Time{})

	d := NewDec(buf)
	if got := d.Uvarint(); got != 0 {
		t.Fatalf("uvarint: got %d", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Fatalf("uvarint: got %d", got)
	}
	if got := d.Varint(); got != -12345 {
		t.Fatalf("varint: got %d", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("bytes: got %q", got)
	}
	if got := d.Bytes(); got != nil {
		t.Fatalf("empty bytes should decode nil, got %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("string: got %q", got)
	}
	if got := d.String(); got != "" {
		t.Fatalf("empty string: got %q", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bool round-trip failed")
	}
	if got := d.Time(); !got.Equal(ts) {
		t.Fatalf("time: got %v want %v", got, ts)
	}
	if got := d.Time(); !got.IsZero() {
		t.Fatalf("zero time: got %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

// TestDecSticky verifies the first error poisons all later reads.
func TestDecSticky(t *testing.T) {
	d := NewDec([]byte{0x05, 'a'}) // length 5 but only one byte follows
	if got := d.Bytes(); got != nil {
		t.Fatalf("truncated bytes returned %v", got)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", d.Err())
	}
	// All subsequent reads are no-ops returning zero values.
	if d.Uvarint() != 0 || d.Byte() != 0 || d.Bool() || d.String() != "" {
		t.Fatal("poisoned cursor returned non-zero values")
	}
	if !errors.Is(d.Finish(), ErrTruncated) {
		t.Fatalf("finish should surface first error, got %v", d.Finish())
	}
}

// TestDecTrailing verifies Finish rejects leftover bytes.
func TestDecTrailing(t *testing.T) {
	d := NewDec([]byte{0x01, 0xFF})
	if d.Byte() != 0x01 {
		t.Fatal("byte read failed")
	}
	if err := d.Finish(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed for trailing bytes, got %v", err)
	}
}

// TestMagic covers good, short, and wrong-magic inputs.
func TestMagic(t *testing.T) {
	magic := []byte("HPXX")
	good := append(append([]byte(nil), magic...), 2)
	d := NewDec(good)
	if ver := d.Magic(magic); ver != 2 || d.Err() != nil {
		t.Fatalf("magic: ver=%d err=%v", ver, d.Err())
	}

	d = NewDec(magic) // no version byte
	d.Magic(magic)
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("short magic: want ErrTruncated, got %v", d.Err())
	}

	d = NewDec([]byte("HPYY\x01"))
	d.Magic(magic)
	if !errors.Is(d.Err(), ErrMalformed) {
		t.Fatalf("wrong magic: want ErrMalformed, got %v", d.Err())
	}
}

// TestCountBound verifies hostile counts fail before allocation.
func TestCountBound(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 1<<40) // absurd count, no elements follow
	d := NewDec(buf)
	if n := d.Count(); n != 0 {
		t.Fatalf("hostile count returned %d", n)
	}
	if !errors.Is(d.Err(), ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", d.Err())
	}
}

// TestBoolCanonical rejects non-0/1 bool bytes.
func TestBoolCanonical(t *testing.T) {
	d := NewDec([]byte{0x02})
	d.Bool()
	if !errors.Is(d.Err(), ErrMalformed) {
		t.Fatalf("want ErrMalformed for bool byte 2, got %v", d.Err())
	}
}

// TestTimeBadNanos rejects nanosecond fields >= 1e9.
func TestTimeBadNanos(t *testing.T) {
	var buf []byte
	buf = append(buf, 1)
	buf = AppendVarint(buf, 1700000000)
	buf = AppendUvarint(buf, uint64(time.Second)) // out of range
	d := NewDec(buf)
	d.Time()
	if !errors.Is(d.Err(), ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", d.Err())
	}
}

// TestChecksum covers append/verify plus tamper detection.
func TestChecksum(t *testing.T) {
	body := []byte("record body")
	framed := AppendChecksum(append([]byte(nil), body...), 0)
	got, err := VerifyChecksum(framed)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("verify: %q, %v", got, err)
	}
	framed[3] ^= 0x10
	if _, err := VerifyChecksum(framed); !errors.Is(err, ErrChecksum) {
		t.Fatalf("tamper: want ErrChecksum, got %v", err)
	}
	if _, err := VerifyChecksum([]byte{1, 2}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short: want ErrTruncated, got %v", err)
	}
}

// TestBufferPoolReuse verifies the steady-state encode path stops
// allocating once the pool is warm.
func TestBufferPoolReuse(t *testing.T) {
	// Warm the pool with a buffer big enough for the test record.
	warm := GetBuffer()
	warm.Grow(1024)
	warm.Release()

	allocs := testing.AllocsPerRun(100, func() {
		buf := GetBuffer()
		buf.B = AppendString(buf.B, "steady-state record")
		buf.B = AppendUvarint(buf.B, 42)
		buf.Release()
	})
	if allocs > 0 {
		t.Fatalf("pooled encode allocated %.1f times per run", allocs)
	}
}

// TestBufferGrow verifies Grow preserves contents and extends capacity.
func TestBufferGrow(t *testing.T) {
	b := &Buffer{B: []byte("abc")}
	b.Grow(1 << 16)
	if string(b.B) != "abc" {
		t.Fatalf("grow lost contents: %q", b.B)
	}
	if cap(b.B)-len(b.B) < 1<<16 {
		t.Fatalf("grow did not extend capacity: %d", cap(b.B))
	}
}

// TestBytesShared verifies aliasing reads share the input's backing array.
func TestBytesShared(t *testing.T) {
	buf := AppendBytes(nil, []byte("shared"))
	d := NewDec(buf)
	p := d.BytesShared()
	if string(p) != "shared" {
		t.Fatalf("got %q", p)
	}
	buf[1] = 'S' // first payload byte (after 1-byte length)
	if string(p) != "Shared" {
		t.Fatal("BytesShared did not alias the input")
	}
}

// TestRest: Rest hands over every unread byte (aliasing the input) and leaves
// the cursor finished; after a failed read it hands over nothing.
func TestRest(t *testing.T) {
	buf := append(AppendUvarint(nil, 7), "tail"...)
	d := NewDec(buf)
	if d.Uvarint() != 7 {
		t.Fatal("prefix")
	}
	rest := d.Rest()
	if string(rest) != "tail" || &rest[0] != &buf[1] {
		t.Fatalf("Rest = %q, aliasing %v", rest, &rest[0] == &buf[1])
	}
	if err := d.Finish(); err != nil || d.Rest() != nil {
		t.Fatalf("after Rest: Finish = %v", err)
	}
	d = NewDec([]byte{0x80}) // torn uvarint
	d.Uvarint()
	if d.Rest() != nil || !errors.Is(d.Finish(), ErrTruncated) {
		t.Fatalf("Rest on a failed cursor: err = %v", d.Err())
	}
}

// TestTimeDecodesCanonical: a zoned timestamp decodes to the same instant
// in UTC, and re-encoding the decoded value is byte-stable.
func TestTimeDecodesCanonical(t *testing.T) {
	in := time.Date(2024, 5, 1, 12, 0, 0, 999, time.FixedZone("X", 3600))
	first := AppendTime(nil, in)
	got := NewDec(first).Time()
	if got.Location() != time.UTC || !got.Equal(in) {
		t.Fatalf("decoded %v, want the instant %v in UTC", got, in)
	}
	if !bytes.Equal(first, AppendTime(nil, got)) {
		t.Fatal("decoded time not byte-stable across round-trip")
	}
}

// Each Size* function returns exactly what its Append* counterpart appends.
func TestSizesMatchAppends(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 32, math.MaxUint64} {
		if got, want := SizeUvarint(v), len(AppendUvarint(nil, v)); got != want {
			t.Errorf("SizeUvarint(%d) = %d, appended %d", v, got, want)
		}
	}
	for _, v := range []int64{0, -1, 63, 64, -64, -65, 200, 500, math.MaxInt64, math.MinInt64} {
		if got, want := SizeVarint(v), len(AppendVarint(nil, v)); got != want {
			t.Errorf("SizeVarint(%d) = %d, appended %d", v, got, want)
		}
	}
	for _, n := range []int{0, 1, 127, 128, 70000} {
		if got, want := SizeBytes(n), len(AppendBytes(nil, make([]byte, n))); got != want {
			t.Errorf("SizeBytes(%d) = %d, appended %d", n, got, want)
		}
	}
	for _, ts := range []time.Time{{}, time.Unix(0, 1), time.Unix(1700000123, 456789), time.Unix(-5, 999999999), time.Now()} {
		if got, want := SizeTime(ts), len(AppendTime(nil, ts)); got != want {
			t.Errorf("SizeTime(%v) = %d, appended %d", ts, got, want)
		}
	}
}

func TestHashFieldsRespectsBoundaries(t *testing.T) {
	if HashFields([]byte("ab"), []byte("c")) == HashFields([]byte("a"), []byte("bc")) {
		t.Error("fields that concatenate equally share a digest")
	}
	if HashFields([]byte("ab"), nil) == HashFields([]byte("ab")) {
		t.Error("an empty trailing field is invisible")
	}
	if HashFields([]byte("ab"), []byte("c")) != HashFields([]byte("ab"), []byte("c")) {
		t.Error("digest is not deterministic")
	}
}

// Every Hasher method feeds the hash exactly what the Append function of the
// same name appends, whatever was written before it and however the strings
// straddle the scratch block.
func TestHasherMatchesAppends(t *testing.T) {
	long := bytes.Repeat([]byte("0123456789abcdef"), 300)
	var enc []byte
	h := NewHasher()
	h.Raw([]byte("HPXX"))
	enc = append(enc, "HPXX"...)
	h.Byte(7)
	enc = append(enc, 7)
	for _, v := range []uint64{0, 127, 128, 1 << 32, math.MaxUint64} {
		h.Uvarint(v)
		enc = AppendUvarint(enc, v)
	}
	for _, v := range []int64{0, -1, 64, -65, math.MaxInt64, math.MinInt64} {
		h.Varint(v)
		enc = AppendVarint(enc, v)
	}
	for _, p := range [][]byte{nil, {}, []byte("x"), long} {
		h.Bytes(p)
		enc = AppendBytes(enc, p)
		h.String(string(p))
		enc = AppendString(enc, string(p))
	}
	for _, n := range []int{63, 64, 65, 128, 129} { // around the scratch block
		h.String(string(long[:n]))
		enc = AppendString(enc, string(long[:n]))
	}
	for _, ts := range []time.Time{{}, time.Unix(0, 1), time.Unix(1700000123, 456789), time.Unix(-5, 999999999)} {
		h.Time(ts)
		enc = AppendTime(enc, ts)
	}
	if got, want := h.Sum(), sha256.Sum256(enc); got != want {
		t.Fatalf("streamed digest %x, digest of the appended encoding %x", got, want)
	}
	// A recycled hasher starts empty.
	if got, want := NewHasher().Sum(), sha256.Sum256(nil); got != want {
		t.Errorf("fresh hasher digest %x, want the empty digest %x", got, want)
	}
}

// HashFields is SHA-256 over each field behind its 8-byte big-endian length.
func TestHashFieldsLayout(t *testing.T) {
	var enc []byte
	fields := [][]byte{[]byte("certificate digest"), nil, bytes.Repeat([]byte{0xab}, 200)}
	for _, f := range fields {
		enc = binary.BigEndian.AppendUint64(enc, uint64(len(f)))
		enc = append(enc, f...)
	}
	if got, want := HashFields(fields...), sha256.Sum256(enc); got != want {
		t.Errorf("HashFields = %x, want %x", got, want)
	}
}
