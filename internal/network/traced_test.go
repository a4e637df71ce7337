package network

import (
	"bytes"
	"strings"
	"testing"
)

func TestTracedFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "tx-abc123", "", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	payload, id, _, err := ReadFrameExt(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != "tx-abc123" || string(payload) != "payload" {
		t.Errorf("got id=%q payload=%q", id, payload)
	}
}

func TestTracedFrameEmptyIDIsPlainFrame(t *testing.T) {
	var a bytes.Buffer
	if err := WriteFrameExt(&a, "", "", []byte("same")); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 0, 0, 4, 's', 'a', 'm', 'e'}; !bytes.Equal(a.Bytes(), want) {
		t.Errorf("empty-ID traced frame = %x, want the plain frame %x", a.Bytes(), want)
	}
	_, id, _, err := ReadFrameExt(&a)
	if err != nil || id != "" {
		t.Errorf("id=%q err=%v", id, err)
	}
}

func TestTracedFrameOversizedIDDropped(t *testing.T) {
	var buf bytes.Buffer
	long := strings.Repeat("x", 300)
	if err := WriteFrameExt(&buf, long, "", []byte("body")); err != nil {
		t.Fatal(err)
	}
	payload, id, _, err := ReadFrameExt(&buf)
	if err != nil || id != "" || string(payload) != "body" {
		t.Errorf("payload=%q id=%q err=%v", payload, id, err)
	}
}

// Plain ReadFrame must interoperate with traced writers: the trace ID is
// discarded, the payload survives.
func TestReadFrameDiscardsTraceID(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "tx9", "", []byte("visible")); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(&buf)
	if err != nil || string(payload) != "visible" {
		t.Errorf("payload=%q err=%v", payload, err)
	}
}

// A traced frame must still cross the shaper in a single Write so it pays
// exactly one one-way latency.
func TestTracedFrameSingleWrite(t *testing.T) {
	w := &countingWriter{}
	if err := WriteFrameExt(w, "txid", "", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("traced frame issued %d writes, want 1", w.writes)
	}
}

// TestTracedFrameBodyRoundTrip: a Frame built with a trace ID delivers both
// the ID and the body appended to it.
func TestTracedFrameBodyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	f := NewFrame("tx-77", "")
	f.B = append(f.B, "body"...)
	err := f.Send(&buf)
	f.Release()
	if err != nil {
		t.Fatal(err)
	}
	body, id, _, err := ReadFrameExt(&buf)
	if err != nil || id != "tx-77" || string(body) != "body" {
		t.Errorf("body=%q id=%q err=%v", body, id, err)
	}
}

// Truncation inside the trace extension must error, not return garbage.
func TestTracedFrameTruncatedExtension(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "abcdef", "", []byte("body")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Corrupt: claim a longer ID than the frame holds.
	bad := append([]byte(nil), full...)
	bad[4] = 200
	if _, _, _, err := ReadFrameExt(bytes.NewReader(bad)); err == nil {
		t.Error("oversized embedded id length accepted")
	}
}
