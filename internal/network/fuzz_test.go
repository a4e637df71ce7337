package network

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"github.com/hyperprov/hyperprov/internal/codec"
)

// frameSeed builds a wire frame for the corpus.
func frameSeed(t *testing.F, traceID, channelID string, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, traceID, channelID, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFrameExt throws arbitrary bytes at the frame reader. The framing
// contract under hostile input: no panic, no unstructured error — every
// failure is io.EOF (clean end between frames), io.ErrUnexpectedEOF (torn
// frame), or ErrFrameTooLarge (oversized announcement) — and every
// successful parse round-trips through WriteFrameExt.
func FuzzReadFrameExt(f *testing.F) {
	// Valid frames in every header shape: plain, traced, channeled, both,
	// empty payload, ASCII and binary payloads.
	f.Add(frameSeed(f, "", "", []byte("payload")))
	f.Add(frameSeed(f, "trace-1", "", []byte("payload")))
	f.Add(frameSeed(f, "", "ch1", []byte("payload")))
	f.Add(frameSeed(f, "trace-1", "mychannel", codec.AppendString([]byte{0x02}, "mem://sha256:00")))
	f.Add(frameSeed(f, "t", "c", nil))
	f.Add(frameSeed(f, "", "", bytes.Repeat([]byte{0x00, 0xFF}, 512)))

	// Hostile shapes: oversized announcement, flag bits with no extension
	// bytes, torn header, torn body, torn extension.
	over := binary.BigEndian.AppendUint32(nil, MaxFrame+2*(1+maxTraceID)+1)
	f.Add(over)
	f.Add(binary.BigEndian.AppendUint32(nil, uint32(traceFlag|channelFlag)))
	f.Add([]byte{0x00, 0x00})
	f.Add(binary.BigEndian.AppendUint32(nil, 16))
	torn := frameSeed(f, "trace-1", "ch1", []byte("payload"))
	f.Add(torn[:len(torn)-3])
	f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(traceFlag)|2), 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, traceID, channelID, err := ReadFrameExt(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("unstructured error from ReadFrameExt: %v", err)
			}
			return
		}
		// ReadFrame over the same bytes must agree on the payload (it only
		// discards the extensions).
		plain, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadFrameExt accepted but ReadFrame rejected: %v", err)
		}
		if !bytes.Equal(plain, payload) {
			t.Fatalf("ReadFrame payload %q != ReadFrameExt payload %q", plain, payload)
		}
		// The header reader leaves the stream at the payload: a served
		// connection's handler reads the body from there.
		r := bytes.NewReader(data)
		if h, err := readHeader(r); err != nil || h.n != len(payload) || !bytes.HasPrefix(data[len(data)-r.Len():], payload) {
			t.Fatalf("readHeader = %+v, %v; ReadFrameExt read a %d-byte payload", h, err, len(payload))
		}
		if len(payload) > MaxFrame {
			// Headers may announce up to MaxFrame plus extension headroom;
			// a payload over MaxFrame cannot be re-written, stop here.
			return
		}
		var buf bytes.Buffer
		if err := WriteFrameExt(&buf, traceID, channelID, payload); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		p2, t2, c2, err := ReadFrameExt(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-encoded frame failed: %v", err)
		}
		if !bytes.Equal(p2, payload) || t2 != traceID || c2 != channelID {
			t.Fatalf("round-trip mismatch: (%q,%q,%q) != (%q,%q,%q)",
				p2, t2, c2, payload, traceID, channelID)
		}
	})
}
