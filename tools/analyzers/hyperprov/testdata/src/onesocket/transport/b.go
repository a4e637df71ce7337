package transport

import "net"

func probe(addr string) bool {
	//hyperprov:allow onesocket fixture: a one-shot reachability probe that keeps no connection
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return false
	}
	c.Close()
	return true
}
