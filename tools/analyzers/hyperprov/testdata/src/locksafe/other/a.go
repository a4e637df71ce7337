// Package other is out of scope for locksafe: holding a lock across a
// channel send is legal here (no locking contract).
package other

import "sync"

type box struct {
	mu sync.Mutex
	ch chan int
}

func (b *box) fine(v int) {
	b.mu.Lock()
	b.ch <- v
	b.mu.Unlock()
}
