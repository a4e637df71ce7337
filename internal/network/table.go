package network

import (
	"bufio"
	"fmt"
	"io"
	"net"

	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/metrics"
)

// This file is the serving half of every service: a service lists its ops
// as (code, name, handler) entries, and the table runs every connection —
// header, op byte, handler, reply, frame sync. A rule every served op obeys
// is written here, once.

// Op is one entry of a service's op table.
type Op struct {
	// Code is the byte a request's body opens with. The codes are the
	// service's protocol: append, never renumber or reuse.
	Code byte
	// Name spells the op in errors and per-op metrics.
	Name string
	// Handle answers one request. It reads what it needs of req's body and
	// appends the reply to out — a status (AppendStatus), then on success the
	// op's layout — which the table sends when it returns nil. A non-nil
	// error says the request made no sense: the table answers it with
	// CodeBadRequest instead, unless a read or send through req failed, which
	// ends the connection.
	Handle func(req *Request, out *Frame) error
}

// Table is what a Server serves on every connection it accepts.
type Table struct {
	Ops []Op
	// Shape is applied to every frame the server writes, modelling the
	// serving node's uplink; zero means unshaped.
	Shape LinkShape
	// Metrics, when set, receives the server-side transport counters:
	// frames and bytes in each direction.
	Metrics *metrics.Registry
}

// Request is one request as its handler sees it: the header's trace and
// channel extensions, and the body past the op byte, which the handler reads
// from the connection as it needs it — up to the end of the frame, never
// beyond. A Request is valid until its handler returns.
type Request struct {
	TraceID string
	Channel string
	c       *served
	left    int // body bytes not yet read
}

// Read reads the body; it reports io.EOF at the end of the frame.
func (r *Request) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	n, err := r.c.in.Read(p[:min(len(p), r.left)])
	r.left -= n
	if err != nil {
		return n, r.c.fail(eofIsUnexpected(err))
	}
	return n, nil
}

// ReadByte reads one byte of the body.
func (r *Request) ReadByte() (byte, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	b, err := r.c.in.ReadByte()
	if err != nil {
		return 0, r.c.fail(eofIsUnexpected(err))
	}
	r.left--
	return b, nil
}

// Len returns how many bytes of the body are left to read.
func (r *Request) Len() int { return r.left }

// ReadAll reads the rest of the body into a buffer of its own, for a handler
// whose decoded values alias the request: they may keep it for as long as
// they live.
func (r *Request) ReadAll() ([]byte, error) { return ReadAnnounced(r, r.left) }

// Send writes f to the client ahead of the reply the handler appends to out:
// the frames of a streamed reply. The caller releases f.
func (r *Request) Send(f Frame) error { return r.c.send(f) }

// served is one connection a table serves: requests read through one small
// buffer, replies written shaped.
type served struct {
	in  *bufio.Reader
	w   *ShapedConn
	reg *metrics.Registry
	err error // the first read or write that failed: the connection is done
	req Request
	out Frame
}

// Serve runs the table over one connection until the client hangs up or the
// connection fails. A framing violation (an oversized announcement, a torn
// frame) ends the connection. A request that makes no sense (an empty body,
// an op outside the table, a body its handler refuses) is answered with
// CodeBadRequest, and the connection keeps serving: the frame boundary held.
func (t *Table) Serve(conn net.Conn) {
	rw := CountConn(conn, t.Metrics)
	c := &served{in: bufio.NewReader(rw), w: NewShapedConn(rw, t.Shape), reg: t.Metrics}
	for c.next(t) {
	}
}

// next answers one request; false means the connection is done.
func (c *served) next(t *Table) bool {
	h, err := readHeader(c.in)
	if err != nil {
		return false // EOF, oversized announcement, or broken connection
	}
	count(c.reg, metrics.TransportFramesReceived)
	c.req = Request{TraceID: h.traceID, Channel: h.channelID, c: c, left: h.n}
	c.out = NewFrame("", "")
	defer c.out.Release()
	if err := t.handle(&c.req, &c.out); err != nil && c.err == nil {
		c.out.B, c.out.Tail = AppendStatus(c.out.B[:c.out.body], CodeBadRequest, err.Error()), nil
	}
	// Whatever the handler left unread is drained: the next header starts
	// where this body ends.
	if _, err := c.in.Discard(c.req.left); err != nil {
		c.fail(err)
	}
	return c.send(c.out) == nil
}

// handle reads the op byte of req and hands the rest to that op's handler.
func (t *Table) handle(req *Request, out *Frame) error {
	code, err := req.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: empty request", codec.ErrTruncated)
	}
	for i := range t.Ops {
		if op := &t.Ops[i]; op.Code == code {
			if err := op.Handle(req, out); err != nil {
				return fmt.Errorf("%s request: %w", op.Name, err)
			}
			return nil
		}
	}
	return fmt.Errorf("%w: unknown op %#x", codec.ErrMalformed, code)
}

// send writes f shaped and counts it; after a failed read or write it sends
// nothing.
func (c *served) send(f Frame) error {
	if c.err != nil {
		return c.err
	}
	if err := f.Send(c.w); err != nil {
		return c.fail(err)
	}
	count(c.reg, metrics.TransportFramesSent)
	return nil
}

// fail records the connection's first failure and returns err.
func (c *served) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}
