//go:build race

package offchain

// Under the race detector sync.Pool deliberately drops a fraction of Put
// calls to shake out lifecycle bugs, so a pooled frame buffer's
// steady-state allocation budget does not hold; TestRemotePutGetAllocBudget
// skips its budget there.
const raceEnabled = true
