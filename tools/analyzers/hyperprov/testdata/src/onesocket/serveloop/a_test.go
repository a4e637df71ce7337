package serveloop

import (
	"net"

	"onesocket/network"
)

// Tests may play a raw peer that reads frames off its own socket; the
// analyzer skips _test.go files.
func rawPeer(conn net.Conn) ([]byte, error) {
	return network.ReadFrame(conn)
}
