package blockstore

import (
	"sync"
	"sync/atomic"
)

// Height is a chain's block count as a signal its readers wait on: the
// writer Advances it once blocks are readable, and a reader that wants block
// n waits for height n+1 and then reads the block itself. Nothing is pushed
// or buffered, so a reader that stops reading holds up nobody but itself.
// The wake channel is made only when someone waits: a height nobody waits on
// costs one uncontended lock per Advance. The zero value is height 0.
type Height struct {
	n      atomic.Uint64
	mu     sync.Mutex
	wake   chan struct{} // closed by the next Advance; nil while nobody waits
	closed bool
}

// Load returns the current height.
func (h *Height) Load() uint64 { return h.n.Load() }

// Advance raises the height to n (a lower n is ignored) and wakes every
// waiter.
func (h *Height) Advance(n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n > h.n.Load() {
		h.n.Store(n)
	}
	if h.wake != nil {
		close(h.wake)
		h.wake = nil
	}
}

// Close ends the height: every Wait for more than it has returns false.
func (h *Height) Close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.Advance(0) // wakes the waiters
}

// Wait blocks until the height reaches n and reports true, or reports false
// once stop closes or the height is closed below n. A nil stop never closes.
func (h *Height) Wait(n uint64, stop <-chan struct{}) bool {
	for h.n.Load() < n {
		h.mu.Lock()
		if h.n.Load() >= n || h.closed {
			h.mu.Unlock()
			break
		}
		if h.wake == nil {
			h.wake = make(chan struct{})
		}
		wake := h.wake
		h.mu.Unlock()
		select {
		case <-wake:
		case <-stop:
			return h.n.Load() >= n
		}
	}
	return h.n.Load() >= n
}
