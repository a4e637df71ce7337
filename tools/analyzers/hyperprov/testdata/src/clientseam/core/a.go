// Package core is an in-scope fixture for the clientseam analyzer: the
// client library may hold the seam's value types, never the network.
package core

import (
	"clientseam/internal/blockstore"
	"clientseam/internal/device" // want "clientseam/internal/device imported in the client library"
	"clientseam/internal/fabric" // want "clientseam/internal/fabric imported in the client library"
)

type Client struct {
	gw   *fabric.Gateway
	exec *device.Executor
}

func (c *Client) bad(n int) string {
	c.exec.Hash(n)
	return c.gw.ChannelID()
}

func good(res *blockstore.TxResult) string { return res.TxID }
