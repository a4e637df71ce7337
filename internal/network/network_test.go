package network

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/hyperprov/hyperprov/internal/codec"
)

// WriteFrameExt writes an already-encoded payload as one frame with the given
// header extensions (see NewFrame; see Frame.Send for the single-Write
// guarantee). With both empty the frame is the bare length word and the
// payload, which is what keeps single-channel peers wire-compatible across
// versions.
func WriteFrameExt(w io.Writer, traceID, channelID string, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	f := NewFrame(traceID, channelID)
	f.Grow(len(payload))
	f.B = append(f.B, payload...)
	err := f.Send(w)
	f.Release()
	return err
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{7}, 100000)}
	for _, p := range payloads {
		if err := WriteFrameExt(&buf, "", "", p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %d bytes, want %d", len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("read past end = %v, want EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "", "", make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized write err = %v", err)
	}
	// A malicious header announcing an oversized frame must be rejected.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized read err = %v", err)
	}
}

// TestFrameBodyRoundTrip: a body appended in place to a Frame arrives as the
// reader's payload, the same frame can be sent twice (a client that redials
// resends it), and a body over MaxFrame is refused at Send.
func TestFrameBodyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	f := NewFrame("", "")
	defer f.Release()
	f.B = append(f.B, 0x01)
	f.B = codec.AppendString(f.B, "key")
	f.B = codec.AppendBytes(f.B, []byte{0, 1, 2, 0xFF})
	for i := 0; i < 2; i++ {
		if err := f.Send(&buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		body, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		d := codec.NewDec(body)
		op, key, data := d.Byte(), d.String(), d.Bytes()
		if err := d.Finish(); err != nil || op != 0x01 || key != "key" || !bytes.Equal(data, []byte{0, 1, 2, 0xFF}) {
			t.Errorf("send %d: op=%#x key=%q data=%v err=%v", i, op, key, data, err)
		}
	}

	big := NewFrame("trace", "channel")
	defer big.Release()
	big.Grow(MaxFrame + 1) // sized, never touched: the pages stay unmapped
	big.B = big.B[:len(big.B)+MaxFrame+1]
	if err := big.Send(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized body err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused frame wrote %d bytes", buf.Len())
	}
}

// TestStatusRoundTrip: every code of the vocabulary survives the wire, a
// success carries no message, and a value outside the vocabulary — sent or
// received — degrades to CodeInternal instead of failing the decode.
func TestStatusRoundTrip(t *testing.T) {
	for _, code := range statusCodes {
		d := codec.NewDec(AppendStatus(nil, code, "why"))
		got, msg := ReadStatus(d)
		wantMsg := "why"
		if code == CodeNone {
			wantMsg = ""
		}
		if err := d.Finish(); err != nil || got != code || msg != wantMsg {
			t.Errorf("%q: got %q %q err %v", code, got, msg, err)
		}
	}
	d := codec.NewDec(AppendStatus(nil, ErrCode("made_up"), "m"))
	if got, msg := ReadStatus(d); got != CodeInternal || msg != "m" || d.Finish() != nil {
		t.Errorf("unknown code sent as %q %q", got, msg)
	}
	d = codec.NewDec(codec.AppendString([]byte{0xEE}, "from the future"))
	if got, msg := ReadStatus(d); got != CodeInternal || msg != "from the future" || d.Finish() != nil {
		t.Errorf("unknown status byte read as %q %q", got, msg)
	}
	// A torn reply is an error on the cursor and never reads as success.
	d = codec.NewDec(nil)
	if got, _ := ReadStatus(d); got == CodeNone || !errors.Is(d.Err(), codec.ErrTruncated) {
		t.Errorf("empty reply read as %q, err %v", got, d.Err())
	}
	d = codec.NewDec([]byte{3, 200})
	if ReadStatus(d); !errors.Is(d.Err(), codec.ErrTruncated) {
		t.Errorf("torn message err = %v", d.Err())
	}
}

// announceReader announces a frame of n body bytes and delivers only the
// first few of them.
func announceReader(n uint32, body []byte) Reader {
	return bytes.NewReader(append(binary.BigEndian.AppendUint32(nil, n), body...))
}

// TestReadFrameAllocatesWhatArrives: four header bytes must not be able to
// pin MaxFrame of memory. A peer that announces the largest frame and sends
// ten bytes costs one eager chunk; an honest large frame still round-trips.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(announceReader(MaxFrame, make([]byte, 10)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short body err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Errorf("announcing MaxFrame and sending 10 bytes allocated %d bytes, want < 4 MiB", got)
	}

	payload := make([]byte, 8<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "trace", "ch", payload); err != nil {
		t.Fatal(err)
	}
	got, traceID, channelID, err := ReadFrameExt(&buf)
	if err != nil || traceID != "trace" || channelID != "ch" || !bytes.Equal(got, payload) {
		t.Errorf("8 MiB frame: %d bytes, trace %q, channel %q, err %v", len(got), traceID, channelID, err)
	}
}

// TestFrameTail: a frame whose payload is its Tail reads back as the body
// appended in place followed by the tail, can be sent twice (a client that
// redials resends it), and counts the tail against MaxFrame. The header
// reader leaves the stream at that body, whatever extensions it carries.
func TestFrameTail(t *testing.T) {
	var buf bytes.Buffer
	f := NewFrame("trace", "ch")
	defer f.Release()
	f.B = append(f.B, 0x01)
	f.Tail = bytes.Repeat([]byte{0xAB}, 5000)
	for i := 0; i < 2; i++ {
		if err := f.Send(&buf); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]byte{0x01}, f.Tail...)
	got, traceID, channelID, err := ReadFrameExt(&buf)
	if err != nil || traceID != "trace" || channelID != "ch" || !bytes.Equal(got, want) {
		t.Fatalf("ReadFrameExt: %d bytes, trace %q, channel %q, err %v", len(got), traceID, channelID, err)
	}
	h, err := readHeader(&buf)
	if err != nil || h.n != len(want) || h.traceID != "trace" || h.channelID != "ch" {
		t.Fatalf("readHeader = %+v, %v; want %d body bytes", h, err, len(want))
	}
	if body, err := io.ReadAll(&buf); err != nil || !bytes.Equal(body, want) {
		t.Fatalf("body after the header: %d bytes, %v", len(body), err)
	}

	big := NewFrame("", "")
	defer big.Release()
	big.B = append(big.B, 0x01)
	big.Tail = make([]byte, MaxFrame) // sized, never touched
	if err := big.Send(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized tail err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused frame wrote %d bytes", buf.Len())
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "", "", []byte("complete")); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	if _, err := ReadFrame(trunc); err == nil {
		t.Error("truncated frame read succeeded")
	}
}

func TestShapedConnWrites(t *testing.T) {
	var buf bytes.Buffer
	c := NewShapedConn(&buf, LinkShape{Latency: 10 * time.Millisecond, Scale: 0.5})
	start := time.Now()
	if _, err := c.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("shaped write returned in %v, want >= ~5ms", elapsed)
	}
	if buf.String() != "data" {
		t.Errorf("written = %q", buf.String())
	}
	// Reads pass through unshaped.
	rbuf := bytes.NewBufferString("incoming")
	rc := NewShapedConn(rbuf, LinkShape{Latency: time.Hour})
	p := make([]byte, 8)
	start = time.Now()
	if _, err := rc.Read(p); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Error("read was shaped")
	}
}

// Property: arbitrary byte sequences frame-round-trip.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrameExt(&buf, "", "", payload); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// failAfterWriter fails every write after the first n bytes were accepted.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		accepted := w.n - w.written
		if accepted < 0 {
			accepted = 0
		}
		w.written += accepted
		return accepted, errors.New("wire broke")
	}
	w.written += len(p)
	return len(p), nil
}

func TestReadFrameShortHeader(t *testing.T) {
	// A clean EOF before any header byte passes through as io.EOF (normal
	// connection shutdown between frames)...
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream err = %v, want io.EOF", err)
	}
	// ...but a header cut off mid-way is an unexpected EOF, not a clean
	// shutdown.
	for _, n := range []int{1, 2, 3} {
		hdr := []byte{0, 0, 0, 9}
		if _, err := ReadFrame(bytes.NewReader(hdr[:n])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d-byte header err = %v, want ErrUnexpectedEOF", n, err)
		}
	}
}

func TestReadFrameShortBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "", "", []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every possible body truncation point must error, never hang or
	// return a partial payload.
	for cut := 4; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("body cut at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "", "", nil); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(&buf)
	if err != nil || len(payload) != 0 {
		t.Errorf("empty frame = %v, %v", payload, err)
	}
}

func TestWriteFrameErrorPropagation(t *testing.T) {
	// Failure while writing the header.
	if err := WriteFrameExt(&failAfterWriter{n: 2}, "", "", []byte("payload")); err == nil {
		t.Error("header write failure not reported")
	}
	// Failure while writing the body.
	if err := WriteFrameExt(&failAfterWriter{n: 6}, "", "", []byte("payload")); err == nil {
		t.Error("body write failure not reported")
	}
}

// countingWriter records how many Write calls it receives.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func (w *countingWriter) Read(p []byte) (int, error) { return w.buf.Read(p) }

// TestWriteFrameSingleWrite pins the framing fix: header and body must go
// out in ONE Write call. A shaper charges latency per Write, so two calls
// per frame would double every framed message's one-way delay (and let
// concurrent writers interleave header and body bytes).
func TestWriteFrameSingleWrite(t *testing.T) {
	w := &countingWriter{}
	if err := WriteFrameExt(w, "", "", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("WriteFrame issued %d writes, want 1", w.writes)
	}
	got, err := ReadFrame(&w.buf)
	if err != nil || string(got) != "payload" {
		t.Fatalf("roundtrip = %q, %v", got, err)
	}
}

// TestShapedFramePaysOneLatency asserts the latency accounting end to end:
// one framed message through a ShapedConn is charged exactly one one-way
// delay, not one per Write call.
func TestShapedFramePaysOneLatency(t *testing.T) {
	const latency = 100 * time.Millisecond
	w := &countingWriter{}
	c := NewShapedConn(w, LinkShape{Latency: latency})
	start := time.Now()
	if err := WriteFrameExt(c, "", "", []byte("one charge")); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if w.writes != 1 {
		t.Fatalf("frame crossed the shaper in %d writes, want 1", w.writes)
	}
	if elapsed < latency {
		t.Errorf("frame paid %v, want >= one latency (%v)", elapsed, latency)
	}
	if elapsed >= 2*latency {
		t.Errorf("frame paid %v, want < two latencies (%v)", elapsed, 2*latency)
	}
}

// yieldingWriter gives other goroutines a chance to run inside every Write,
// so a frame written in two calls without a lock held across them would
// have another writer's bytes land between its parts.
type yieldingWriter struct{ bytes.Buffer }

func (w *yieldingWriter) Write(p []byte) (int, error) {
	runtime.Gosched()
	return w.Buffer.Write(p)
}

// TestShapedTailFramePaysOneLatency: a frame with a tail is charged one
// one-way delay for its header, body and tail together, and goes out under
// one hold of the ShapedConn's lock — frames other goroutines write at the
// same time land whole, before or after it, never inside it.
func TestShapedTailFramePaysOneLatency(t *testing.T) {
	const latency = 100 * time.Millisecond
	w := &countingWriter{}
	c := NewShapedConn(w, LinkShape{Latency: latency})
	f := NewFrame("", "")
	defer f.Release()
	f.B = append(f.B, 'h')
	f.Tail = []byte("tail")
	start := time.Now()
	if err := f.Send(c); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < latency || elapsed >= 2*latency {
		t.Errorf("frame with a tail paid %v, want one latency (%v)", elapsed, latency)
	}
	if got, err := ReadFrame(&w.buf); err != nil || string(got) != "htail" {
		t.Fatalf("frame with a tail read back as %q, %v", got, err)
	}

	y := &yieldingWriter{}
	c = NewShapedConn(y, LinkShape{})
	const writers, frames, size = 4, 50, 101
	var wg sync.WaitGroup
	for g := byte(0); g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				var err error
				if g%2 == 0 {
					err = WriteFrameExt(c, "", "", bytes.Repeat([]byte{g}, size))
				} else {
					f := NewFrame("", "")
					f.B = append(f.B, g)
					f.Tail = bytes.Repeat([]byte{g}, size-1)
					err = f.Send(c)
					f.Release()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < writers*frames; i++ {
		body, err := ReadFrame(&y.Buffer)
		if err != nil || len(body) != size || !bytes.Equal(body, bytes.Repeat(body[:1], size)) {
			t.Fatalf("frame %d came out interleaved: %d bytes, %v", i, len(body), err)
		}
	}
}

func TestReadFrameAtExactLimit(t *testing.T) {
	var buf bytes.Buffer
	payload := make([]byte, 1<<10)
	if err := WriteFrameExt(&buf, "", "", payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || len(got) != len(payload) {
		t.Fatalf("roundtrip: %d bytes, err %v", len(got), err)
	}
}

// TestWriteFrameExtZeroAlloc pins the pooled write path: once the buffer
// pool is warm, framing a payload — with or without header extensions —
// allocates nothing. This is the steady-state guarantee the gossip and
// transport hot paths rely on.
func TestWriteFrameExtZeroAlloc(t *testing.T) {
	payload := make([]byte, 4096)
	// Warm the pool so the measurement sees steady state, not first use.
	if err := WriteFrameExt(io.Discard, "trace-1", "ch", payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteFrameExt(io.Discard, "trace-1", "ch", payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteFrameExt allocates %.1f objects per frame, want 0", allocs)
	}
}

// BenchmarkWriteFrameExt is the -benchmem pin for the pooled frame writer:
// steady-state frame writes on the commit/gossip hot path must report
// 0 allocs/op (`go test -bench WriteFrameExt -benchmem ./internal/network/`).
func BenchmarkWriteFrameExt(b *testing.B) {
	payload := make([]byte, 4096)
	if err := WriteFrameExt(io.Discard, "trace-bench", "ch", payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrameExt(io.Discard, "trace-bench", "ch", payload); err != nil {
			b.Fatal(err)
		}
	}
}
