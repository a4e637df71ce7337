package network

import (
	"bufio"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/metrics"
)

// testTable answers four ops: 'e' echoes its header extensions and body, 'h'
// reads one body byte and leaves the rest to the table, 's' streams three
// frames ahead of its reply, and 'x' refuses every request after appending a
// reply and a tail the table must not send.
func testTable(reg *metrics.Registry) *Table {
	ok := func(out *Frame) { out.B = AppendStatus(out.B, CodeNone, "") }
	return &Table{Metrics: reg, Ops: []Op{
		{Code: 'e', Name: "echo", Handle: func(req *Request, out *Frame) error {
			body, err := req.ReadAll()
			if err != nil {
				return err
			}
			ok(out)
			out.B = codec.AppendString(out.B, req.TraceID+"|"+req.Channel+"|"+string(body))
			return nil
		}},
		{Code: 'h', Name: "half", Handle: func(req *Request, out *Frame) error {
			b, err := req.ReadByte()
			if err != nil {
				return err
			}
			ok(out)
			out.B = codec.AppendString(out.B, string(b))
			return nil
		}},
		{Code: 's', Name: "stream", Handle: func(req *Request, out *Frame) error {
			for i := byte(0); i < 3; i++ {
				f := NewFrame("", "")
				f.B = append(AppendStatus(f.B, CodeNone, ""), i)
				err := req.Send(f)
				f.Release()
				if err != nil {
					return err
				}
			}
			ok(out)
			return nil
		}},
		{Code: 'x', Name: "refuse", Handle: func(req *Request, out *Frame) error {
			ok(out)
			out.Tail = []byte("never sent")
			return errors.New("no such thing")
		}},
	}}
}

// TestTableServesEveryRequest: every request gets exactly one reply frame, a
// streamed one after the frames its handler sent. An empty body, an op
// outside the table and a body its handler refuses are answered with
// CodeBadRequest on a connection that keeps serving; a body the handler
// leaves unread is drained. The table counts frames in both directions.
func TestTableServesEveryRequest(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := Listen("127.0.0.1:0", testTable(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	in := bufio.NewReader(conn)
	frames := 0
	exchange := func(trace, channel string, body []byte) *codec.Dec {
		t.Helper()
		if err := WriteFrameExt(conn, trace, channel, body); err != nil {
			t.Fatal(err)
		}
		reply, err := ReadFrame(in)
		if err != nil {
			t.Fatalf("body %q: connection dropped: %v", body, err)
		}
		frames++
		return codec.NewDec(reply)
	}
	for _, body := range [][]byte{{}, {'?', 1, 2}, []byte(`{"op":"echo"}`), []byte("xyz")} {
		d := exchange("", "", body)
		if code, msg := ReadStatus(d); code != CodeBadRequest || msg == "" || d.Finish() != nil {
			t.Errorf("body %q: %q %q, %v; want %q with a message and nothing after it", body, code, msg, d.Err(), CodeBadRequest)
		}
	}
	answer := func(trace, channel string, body []byte) string {
		t.Helper()
		d := exchange(trace, channel, body)
		code, msg := ReadStatus(d)
		s := d.String()
		if code != CodeNone || d.Finish() != nil {
			t.Fatalf("body %q: %q %q, %v", body, code, msg, d.Err())
		}
		return s
	}
	// "half" reads one byte of five; the next request is still read from its
	// own header.
	if got := answer("", "", []byte("hello")); got != "e" {
		t.Errorf("half = %q, want %q", got, "e")
	}
	if got := answer("tx-1", "ch-a", []byte("echo")); got != "tx-1|ch-a|cho" {
		t.Errorf("echo = %q, want the request's extensions and body", got)
	}
	if err := WriteFrameExt(conn, "", "", []byte("s")); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"\x00\x00", "\x00\x01", "\x00\x02", "\x00"} {
		reply, err := ReadFrame(in)
		if err != nil {
			t.Fatalf("stream frame %d: %v", i, err)
		}
		frames++
		if string(reply) != want {
			t.Errorf("stream frame %d = %x, want %x", i, reply, want)
		}
	}
	snap := reg.Snapshot()
	if snap[metrics.TransportFramesReceived] != 7 || snap[metrics.TransportFramesSent] != int64(frames) {
		t.Errorf("frames in/out = %d/%d, want 7/%d", snap[metrics.TransportFramesReceived], snap[metrics.TransportFramesSent], frames)
	}
}

// TestTableEndsTornRequest: a client that hangs up inside a body ends the
// connection — the handler's read fails and no reply is attempted — and
// Serve returns.
func TestTableEndsTornRequest(t *testing.T) {
	var seen error
	table := &Table{Ops: []Op{{Code: 'e', Name: "echo", Handle: func(req *Request, out *Frame) error {
		_, seen = req.ReadAll()
		return seen
	}}}}
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		table.Serve(server)
		close(done)
	}()
	if _, err := client.Write([]byte{0, 0, 0, 100, 'e', 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the client hung up mid-body")
	}
	if !errors.Is(seen, io.ErrUnexpectedEOF) {
		t.Errorf("the handler's read of a torn body: %v, want io.ErrUnexpectedEOF", seen)
	}
}
