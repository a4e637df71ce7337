//go:build race

package peer

// Under the race detector the compiler does not fuse slices.Grow's
// append(s, make([]T, n)...) into one allocation, so a reply buffer is
// allocated twice; TestLineageQueryBytes skips its budget there.
const raceEnabled = true
