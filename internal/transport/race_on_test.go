//go:build race

package transport

// Under the race detector sync.Pool deliberately drops a fraction of Put
// calls to shake out lifecycle bugs, so a pooled frame buffer's
// zero-allocation steady state does not hold; TestDeliverEncodeZeroAlloc
// skips its count there.
const raceEnabled = true
