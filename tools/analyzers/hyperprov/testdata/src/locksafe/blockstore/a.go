// Package blockstore is an in-scope fixture for the locksafe analyzer in the
// chain's current shape, which it must pass: the writer advances a height
// under its lock (closing a wake channel never blocks), and each reader
// waits for the height outside any lock and then reads the block itself.
package blockstore

import "sync"

type height struct {
	mu   sync.Mutex
	n    int
	wake chan struct{}
}

func (h *height) advance(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n = n
	if h.wake != nil {
		close(h.wake)
		h.wake = nil
	}
}

func (h *height) wait(n int, stop <-chan struct{}) bool {
	for {
		h.mu.Lock()
		if h.n >= n {
			h.mu.Unlock()
			return true
		}
		if h.wake == nil {
			h.wake = make(chan struct{})
		}
		wake := h.wake
		h.mu.Unlock()
		select {
		case <-wake:
		case <-stop:
			return false
		}
	}
}

type chain struct {
	mu     sync.Mutex
	blocks []int
	height height
}

func (c *chain) appendBatch(b int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.blocks = append(c.blocks, b)
	c.height.advance(len(c.blocks))
}

func (c *chain) block(n int, stop <-chan struct{}) (int, bool) {
	if !c.height.wait(n+1, stop) {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blocks[n], true
}
