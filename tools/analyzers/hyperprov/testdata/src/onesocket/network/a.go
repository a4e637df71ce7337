// Package network is out of scope: it is the one place that opens sockets.
package network

import (
	"net"
	"time"
)

func listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

func dial(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, time.Second) }
