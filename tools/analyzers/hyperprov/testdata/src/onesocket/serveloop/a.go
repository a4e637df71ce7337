// Package serveloop is an in-scope fixture for the onesocket analyzer: a
// service that reads frames itself has hand-rolled a serve loop the op table
// already runs.
package serveloop

import (
	"net"

	"onesocket/network"
)

func serve(conn net.Conn) {
	for {
		body, err := network.ReadFrame(conn) // want "network.ReadFrame outside internal/network"
		if err != nil || len(body) == 0 {
			return
		}
		switch body[0] {
		case 0x01:
			conn.Write(body)
		}
	}
}

func serveTraced(conn net.Conn) {
	_, trace, _, _ := network.ReadFrameExt(conn) // want "network.ReadFrameExt outside internal/network"
	_ = trace
}

// A reader passed on is still a frame reader outside the table.
var read = network.ReadFrame // want "network.ReadFrame outside internal/network"
