// Package blockstore stands in for a package below both sides of the seam.
package blockstore

type TxResult struct{ TxID string }
