package transport

import "net"

// Tests may stand up a raw listener to play a hostile or half-open peer; the
// analyzer skips _test.go files.
func hostilePeer() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}
