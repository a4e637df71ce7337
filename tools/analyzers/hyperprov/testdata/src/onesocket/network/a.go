// Package network is out of scope: it is the one place that opens sockets
// and the one place that reads frames.
package network

import (
	"io"
	"net"
	"time"
)

func listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

func dial(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, time.Second) }

// ReadFrame and ReadFrameExt stand in for the frame readers.
func ReadFrame(r io.Reader) ([]byte, error) { return nil, nil }

func ReadFrameExt(r io.Reader) ([]byte, string, string, error) { return nil, "", "", nil }

// Op is an op table's entry; Listen serves a table on every connection.
type Op struct {
	Code   byte
	Handle func(body []byte) []byte
}

func Listen(addr string, ops []Op) error { return nil }

// serve is the table's loop: it reads every request.
func serve(conn net.Conn, ops []Op) {
	for {
		body, err := ReadFrame(conn)
		if err != nil || len(body) == 0 {
			return
		}
		for _, op := range ops {
			if op.Code == body[0] {
				conn.Write(op.Handle(body[1:]))
			}
		}
	}
}
