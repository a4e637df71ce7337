// Package cli is out of scope: a program that assembles a network imports
// it.
package cli

import "clientseam/internal/fabric"

func channel(gw *fabric.Gateway) string { return gw.ChannelID() }
