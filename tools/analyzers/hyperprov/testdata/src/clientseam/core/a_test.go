package core

import "clientseam/internal/fabric"

// Tests assemble the real network the seam abstracts; the analyzer skips
// _test.go files.
func realGateway() *fabric.Gateway { return &fabric.Gateway{} }
