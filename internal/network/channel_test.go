package network

import (
	"bytes"
	"strings"
	"testing"
)

func TestChannelFrameRoundTrip(t *testing.T) {
	cases := []struct{ trace, channel string }{
		{"", ""},
		{"tx-1", ""},
		{"", "ch-iot"},
		{"tx-1", "ch-iot"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := WriteFrameExt(&buf, c.trace, c.channel, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		payload, trace, channel, err := ReadFrameExt(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if trace != c.trace || channel != c.channel || string(payload) != "payload" {
			t.Errorf("case %+v: got trace=%q channel=%q payload=%q", c, trace, channel, payload)
		}
	}
}

// A frame with neither extension must be byte-identical to a plain frame, so
// single-channel deployments keep their pre-extension wire format.
func TestChannelFrameEmptyIsPlainFrame(t *testing.T) {
	var a bytes.Buffer
	if err := WriteFrameExt(&a, "", "", []byte("same")); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 0, 0, 4, 's', 'a', 'm', 'e'}; !bytes.Equal(a.Bytes(), want) {
		t.Errorf("extension-less frame = %x, want the plain frame %x", a.Bytes(), want)
	}
}

// The extension-blind reader (ReadFrame) must still parse a channeled
// frame's payload; the extensions are simply dropped.
func TestTracedReaderDropsChannel(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "tx-5", "ch-a", []byte("visible")); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(&buf)
	if err != nil || string(payload) != "visible" {
		t.Errorf("payload=%q err=%v", payload, err)
	}
}

func TestChannelFrameOversizedIDDropped(t *testing.T) {
	var buf bytes.Buffer
	long := strings.Repeat("c", 300)
	if err := WriteFrameExt(&buf, "tx", long, []byte("body")); err != nil {
		t.Fatal(err)
	}
	payload, trace, channel, err := ReadFrameExt(&buf)
	if err != nil || trace != "tx" || channel != "" || string(payload) != "body" {
		t.Errorf("payload=%q trace=%q channel=%q err=%v", payload, trace, channel, err)
	}
}

// Truncation inside the channel extension must error, not return garbage.
func TestChannelFrameTruncatedExtension(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "", "chan", []byte("body")); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf.Bytes()...)
	// Corrupt: claim a longer channel ID than the frame holds.
	bad[4] = 200
	if _, _, _, err := ReadFrameExt(bytes.NewReader(bad)); err == nil {
		t.Error("oversized embedded channel length accepted")
	}
}

func TestChannelFrameSingleWrite(t *testing.T) {
	w := &countingWriter{}
	if err := WriteFrameExt(w, "txid", "ch", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("channeled frame issued %d writes, want 1", w.writes)
	}
}

// TestExtFrameBodyRoundTrip: a Frame built with both extensions is
// byte-identical to WriteFrameExt of the same body, and reads back whole.
func TestExtFrameBodyRoundTrip(t *testing.T) {
	var buf, ref bytes.Buffer
	f := NewFrame("tx-9", "ch-ml")
	f.B = append(f.B, "body"...)
	err := f.Send(&buf)
	f.Release()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameExt(&ref, "tx-9", "ch-ml", []byte("body")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
		t.Errorf("Frame bytes %x != WriteFrameExt bytes %x", buf.Bytes(), ref.Bytes())
	}
	body, trace, channel, err := ReadFrameExt(&buf)
	if err != nil || trace != "tx-9" || channel != "ch-ml" || string(body) != "body" {
		t.Errorf("body=%q trace=%q channel=%q err=%v", body, trace, channel, err)
	}
}
