// Package fabric stands in for the in-process network.
package fabric

type Gateway struct{}

func (*Gateway) ChannelID() string { return "ch" }
