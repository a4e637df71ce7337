// Package orderer is an in-scope fixture for the locksafe analyzer in the
// parent's chain shape: blocks fanned out to subscriber channels, and
// replayed into a new subscriber's buffer, while holding the chain's lock —
// so one subscriber that stops reading halts ordering for everyone.
package orderer

import "sync"

type chain struct {
	mu     sync.Mutex
	blocks []int
	subs   []chan int
}

func (c *chain) appendBatch(b int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.blocks = append(c.blocks, b)
	for _, sub := range c.subs {
		sub <- b // want "channel send while holding c.mu"
	}
}

func (c *chain) subscribe() <-chan int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan int, 4096)
	for _, b := range c.blocks {
		ch <- b // want "channel send while holding c.mu"
	}
	c.subs = append(c.subs, ch)
	return ch
}
