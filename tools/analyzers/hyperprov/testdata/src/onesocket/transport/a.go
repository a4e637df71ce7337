// Package transport is an in-scope fixture for the onesocket analyzer: a
// service package may not open sockets of its own.
package transport

import (
	"net"
	"time"
)

func listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr) // want "net.Listen outside internal/network"
}

func dial(addr string) (net.Conn, error) {
	if c, err := net.Dial("tcp", addr); err == nil { // want "net.Dial outside internal/network"
		return c, nil
	}
	d := net.Dialer{Timeout: time.Second} // want "net.Dialer outside internal/network"
	if c, err := d.Dial("tcp", addr); err == nil {
		return c, nil
	}
	return net.DialTimeout("tcp", addr, time.Second) // want "net.DialTimeout outside internal/network"
}

// serve is what a service does bring: the loop over an accepted connection.
// Naming net.Conn, or splitting an address, opens nothing.
func serve(conn net.Conn) string {
	host, _, _ := net.SplitHostPort(conn.RemoteAddr().String())
	return host
}
