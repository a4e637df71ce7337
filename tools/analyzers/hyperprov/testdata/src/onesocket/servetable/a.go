// Package servetable is an in-scope fixture for the onesocket analyzer that
// reports nothing: a service that brings its op table's entries and lets
// network.Listen run the loop.
package servetable

import "onesocket/network"

func echo(body []byte) []byte { return body }

func start(addr string) error {
	return network.Listen(addr, []network.Op{{Code: 0x01, Handle: echo}})
}
