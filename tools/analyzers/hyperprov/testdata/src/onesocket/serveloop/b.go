package serveloop

import (
	"net"

	"onesocket/network"
)

func drainOne(conn net.Conn) {
	//hyperprov:allow onesocket fixture: a one-shot read of a handshake the table does not serve
	network.ReadFrame(conn)
}
