// Package network is what the repo's TCP services share: length-prefixed
// framing of internal/codec bodies, the status vocabulary every reply opens
// with, a link shaper that imposes configurable latency and bandwidth on a
// connection, and the endpoint itself (endpoint.go) — the listener with its
// connection lifecycle and the redialling client. The shaper is how the
// off-chain store reproduces the SSHFS-over-LAN transfer costs that dominate
// HyperProv's large-payload measurements.
package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/codec"
)

// MaxFrame bounds a single framed message (64 MiB covers the largest
// payloads in the paper's sweeps with room to spare).
const MaxFrame = 64 << 20

// traceFlag marks a frame carrying a trace-ID extension. MaxFrame is far
// below 2^31, so the length word's top bit is free: a flagged frame is
// [4-byte len|traceFlag][1-byte id length][id bytes][body], where len counts
// the id-length byte, the id, and the body. Readers that predate the flag
// reject such frames (length check fails) rather than misparse them.
const traceFlag = 1 << 31

// channelFlag marks a frame carrying a channel-ID extension — the
// channel analog of traceFlag, using the next free bit of the length word
// (MaxFrame is far below 2^30 too). A frame with both flags lays the
// extensions out in flag-bit order, trace first:
// [4-byte len|flags][1-byte trace len][trace][1-byte channel len][channel][body].
// Every transport request sets it; only off-chain frames, which belong to no
// channel, and replies leave it clear.
const channelFlag = 1 << 30

// maxTraceID bounds the trace-ID extension (one length byte).
const maxTraceID = 255

// maxChannelID bounds the channel-ID extension (one length byte).
const maxChannelID = 255

// eagerBody is the largest announced body the reader allocates in one piece
// before any of it has arrived; a larger body grows as its bytes do, so a
// peer that announces MaxFrame and sends nothing pins this much, not 64 MiB.
const eagerBody = 1 << 20

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("network: frame exceeds maximum size")

// Frame is an outgoing frame under construction in a pooled buffer. NewFrame
// reserves the header, the caller appends the body to B in place — a payload
// or block is encoded once, where it is sent — and Send patches the length
// and writes header and body together. Release the frame when done with it;
// Send does not, so a caller that redials can send the same frame again.
type Frame struct {
	*codec.Buffer
	// Tail, when set, ends the body: Send writes it after B instead of B
	// holding a copy, so a payload the caller already has goes to the
	// socket from where it lies. It must not change until Send returns.
	Tail  []byte
	flags uint32 // extension flags of the length word
	body  int    // offset of the body in B
}

// NewFrame starts a frame carrying up to two header extensions: the trace ID
// (traceFlag) and the channel ID (channelFlag) routing the frame to one
// channel of a host. Either may be empty; with both empty the
// header is the bare length word. Extension values longer than 255 bytes are
// dropped (the frame is still sent without that extension).
func NewFrame(traceID, channelID string) Frame {
	if len(traceID) > maxTraceID {
		traceID = ""
	}
	if len(channelID) > maxChannelID {
		channelID = ""
	}
	// The steady-state gossip and transport write path sends thousands of
	// frames per second, and a per-frame allocation sized header+body is
	// pure GC pressure: frames are assembled in pooled buffers.
	fb := codec.GetBuffer()
	var flags uint32
	fb.B = append(fb.B, 0, 0, 0, 0)
	if traceID != "" {
		flags |= traceFlag
		fb.B = append(append(fb.B, byte(len(traceID))), traceID...)
	}
	if channelID != "" {
		flags |= channelFlag
		fb.B = append(append(fb.B, byte(len(channelID))), channelID...)
	}
	return Frame{Buffer: fb, flags: flags, body: len(fb.B)}
}

// Send writes the frame. Header and body go out in a single Write call: a
// shaped link charges the one-way latency exactly once per frame, and
// concurrent frame writers sharing a connection cannot interleave one
// frame's header with another's body. A frame with a Tail keeps both
// guarantees on a ShapedConn (one delay, one hold of its lock) and is one
// writev on a TCP connection.
func (f Frame) Send(w io.Writer) error {
	if n := len(f.B) - f.body + len(f.Tail); n > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(f.B, uint32(len(f.B)-4+len(f.Tail))|f.flags)
	var err error
	switch c, shaped := w.(*ShapedConn); {
	case len(f.Tail) == 0:
		_, err = w.Write(f.B)
	case shaped:
		err = c.writeBuffers(net.Buffers{f.B, f.Tail})
	default:
		bufs := net.Buffers{f.B, f.Tail}
		_, err = bufs.WriteTo(w)
	}
	if err != nil {
		return fmt.Errorf("network: write frame: %w", err)
	}
	return nil
}

// Reader is what frames are read from: a stream that also hands out single
// bytes — a bufio.Reader over a connection, or bytes in memory — so a
// header's fields cost no read call of their own.
type Reader interface {
	io.Reader
	io.ByteReader
}

// ReadFrame reads one length-prefixed frame, discarding any header
// extensions.
func ReadFrame(r Reader) ([]byte, error) {
	payload, _, _, err := ReadFrameExt(r)
	return payload, err
}

// ReadFrameExt reads one frame into a buffer of its own and returns its
// payload plus the trace and channel IDs carried in the header (each empty
// when its extension is absent). The caller owns the payload.
func ReadFrameExt(r Reader) ([]byte, string, string, error) {
	h, err := readHeader(r)
	if err != nil {
		return nil, "", "", err
	}
	payload, err := ReadAnnounced(r, h.n)
	if err != nil {
		return nil, "", "", fmt.Errorf("network: read frame body: %w", err)
	}
	return payload, h.traceID, h.channelID, nil
}

// header is what a frame's header says: the length of the body that follows
// it, and the extensions ("" when absent).
type header struct {
	n                  int
	traceID, channelID string
}

// readHeader reads one frame's header: the length word and the extensions.
// It is the one header parser — ReadFrameExt and a served connection's loop
// (Table.Serve) both stand on it — and it leaves r at the body. A stream
// that ends before the header is io.EOF, the clean shutdown between frames;
// one that ends inside it is io.ErrUnexpectedEOF.
func readHeader(r io.ByteReader) (header, error) {
	var word uint32
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 {
				err = eofIsUnexpected(err)
			}
			return header{}, err
		}
		word = word<<8 | uint32(b)
	}
	flags := word & (traceFlag | channelFlag)
	h := header{n: int(word &^ flags)}
	if h.n > MaxFrame+2*(1+maxTraceID) {
		return header{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, h.n)
	}
	var err error
	if flags&traceFlag != 0 {
		h.traceID, err = h.ext(r)
	}
	if flags&channelFlag != 0 && err == nil {
		h.channelID, err = h.ext(r)
	}
	if err != nil {
		return header{}, fmt.Errorf("network: read frame header: %w", err)
	}
	return h, nil
}

// ext reads one extension — a length byte and that many bytes, all counted
// in the announced length — a byte at a time, so nothing but the value is
// allocated.
func (h *header) ext(r io.ByteReader) (string, error) {
	var buf [max(maxTraceID, maxChannelID)]byte
	size, err := r.ReadByte()
	if h.n -= 1 + int(size); err == nil && h.n < 0 {
		err = io.ErrUnexpectedEOF
	}
	for i := 0; i < int(size) && err == nil; i++ {
		buf[i], err = r.ReadByte()
	}
	if err != nil {
		return "", eofIsUnexpected(err)
	}
	return string(buf[:size]), nil
}

// ReadAnnounced reads the n bytes a peer announced into a buffer of their
// own, exactly n long. A body up to eagerBody is read in one piece; beyond
// that the buffer grows fourfold as bytes arrive, so memory follows what the
// peer sends — at most four times it — rather than what it announces.
func ReadAnnounced(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, eagerBody))
	for {
		end := min(n, cap(buf))
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			return nil, eofIsUnexpected(err)
		}
		buf = buf[:end]
		if end == n {
			return buf, nil
		}
		buf = append(make([]byte, 0, min(n, 4*end)), buf...)
	}
}

// eofIsUnexpected maps io.EOF to io.ErrUnexpectedEOF for a read of bytes a
// header promised: their absence is a truncated frame, not the clean
// between-frames shutdown io.EOF signals to callers.
func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ErrCode is a machine-readable error classification carried in reply
// frames. The off-chain store protocol and the peer transport share this
// vocabulary so clients map failures to sentinel errors structurally
// instead of matching on message substrings.
type ErrCode string

// Wire error codes.
const (
	// CodeNone marks a successful response.
	CodeNone ErrCode = ""
	// CodeNotFound: the requested object or key does not exist.
	CodeNotFound ErrCode = "not_found"
	// CodeChecksumMismatch: stored data failed its integrity check.
	CodeChecksumMismatch ErrCode = "checksum_mismatch"
	// CodeBadRequest: the request was malformed or referenced an unknown op.
	CodeBadRequest ErrCode = "bad_request"
	// CodeUnknownChaincode: the peer has no such chaincode installed.
	CodeUnknownChaincode ErrCode = "unknown_chaincode"
	// CodeSimulationFailed: chaincode simulation returned a non-OK status.
	CodeSimulationFailed ErrCode = "simulation_failed"
	// CodeUnknownChannel: the host does not serve the requested channel.
	CodeUnknownChannel ErrCode = "unknown_channel"
	// CodeInternal: any other server-side failure.
	CodeInternal ErrCode = "internal"
)

// statusCodes spells ErrCode on the wire: a reply's first byte is the index
// of its code here, so 0 is success. Append only — the positions are the
// protocol.
var statusCodes = [...]ErrCode{
	CodeNone,
	CodeNotFound,
	CodeChecksumMismatch,
	CodeBadRequest,
	CodeUnknownChaincode,
	CodeSimulationFailed,
	CodeUnknownChannel,
	CodeInternal,
}

// AppendStatus opens a reply body: the status byte and, for a failure, the
// human-readable message. A successful reply continues with its op's own
// layout. A code outside the vocabulary is sent as CodeInternal.
func AppendStatus(buf []byte, code ErrCode, msg string) []byte {
	status := byte(len(statusCodes) - 1) // CodeInternal
	for i, c := range statusCodes {
		if c == code {
			status = byte(i)
			break
		}
	}
	buf = append(buf, status)
	if status == 0 {
		return buf
	}
	return codec.AppendString(buf, msg)
}

// ReadStatus reads what AppendStatus wrote, leaving d at the op's own
// layout after CodeNone and at the end of the reply after a failure. A
// status byte this build does not know (a newer peer's code) reads as
// CodeInternal, and so does a reply too short to hold one: callers check
// d.Err, but a caller that forgot cannot take a torn reply for success.
func ReadStatus(d *codec.Dec) (ErrCode, string) {
	status := d.Byte()
	if d.Err() != nil {
		return CodeInternal, ""
	}
	if status == 0 {
		return CodeNone, ""
	}
	msg := d.String()
	if int(status) >= len(statusCodes) {
		return CodeInternal, msg
	}
	return statusCodes[status], msg
}

// LinkShape describes a simulated link.
type LinkShape struct {
	// Latency is added once per transfer direction (one-way delay).
	Latency time.Duration
	// Mbps caps throughput; 0 means unshaped.
	Mbps float64
	// Scale compresses the imposed delays (matching device.Clock scaling);
	// 0 means 1.0.
	Scale float64
}

// Delay returns the shaped transfer time for n bytes (latency + serialization).
func (s LinkShape) Delay(n int) time.Duration {
	d := s.Latency
	if s.Mbps > 0 && n > 0 {
		d += time.Duration(float64(n) * 8 / (s.Mbps * 1e6) * float64(time.Second))
	}
	scale := s.Scale
	if scale <= 0 {
		scale = 1
	}
	return time.Duration(float64(d) * scale)
}

// ShapedConn wraps a bidirectional stream, imposing the link shape on
// writes. Reads are left unshaped (the remote side shapes its own writes).
type ShapedConn struct {
	rw    io.ReadWriter
	shape LinkShape
	mu    sync.Mutex
}

// NewShapedConn wraps rw with the given link shape.
func NewShapedConn(rw io.ReadWriter, shape LinkShape) *ShapedConn {
	return &ShapedConn{rw: rw, shape: shape}
}

// Read reads from the underlying stream.
func (c *ShapedConn) Read(p []byte) (int, error) { return c.rw.Read(p) }

// Write sleeps for the shaped delay of len(p) bytes, then writes.
func (c *ShapedConn) Write(p []byte) (int, error) {
	if d := c.shape.Delay(len(p)); d > 0 {
		time.Sleep(d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rw.Write(p)
}

// writeBuffers is Write for bytes held in several buffers: one shaped delay
// for all of them, then written back to back under one hold of the lock —
// as one writev when the stream is a TCP connection.
func (c *ShapedConn) writeBuffers(bufs net.Buffers) error {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	if d := c.shape.Delay(n); d > 0 {
		time.Sleep(d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := bufs.WriteTo(c.rw)
	return err
}
