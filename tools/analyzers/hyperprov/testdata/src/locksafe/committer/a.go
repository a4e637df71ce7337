// Package committer is an in-scope fixture for the locksafe analyzer:
// locks must not be held across blocking operations.
package committer

import (
	"net"
	"sync"
	"time"
)

type queue struct {
	mu sync.Mutex
	ch chan int
	wg sync.WaitGroup
}

func (q *queue) badSend(v int) {
	q.mu.Lock()
	q.ch <- v // want "channel send while holding q.mu"
	q.mu.Unlock()
}

func (q *queue) badReceive() int {
	q.mu.Lock()
	v := <-q.ch // want "channel receive while holding q.mu"
	q.mu.Unlock()
	return v
}

func (q *queue) badSleep() {
	q.mu.Lock()
	defer q.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding q.mu"
}

func (q *queue) badWait() {
	q.mu.Lock()
	q.wg.Wait() // want "sync.WaitGroup.Wait while holding q.mu"
	q.mu.Unlock()
}

func (q *queue) badDial(addr string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, _ = net.Dial("tcp", addr) // want "net.Dial while holding q.mu"
}

func (q *queue) goodReleaseFirst(v int) {
	q.mu.Lock()
	q.mu.Unlock()
	q.ch <- v
}

func (q *queue) goodClosure(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	// The closure runs later, not under the lock.
	go func() {
		q.ch <- v
	}()
}

func (q *queue) sanctioned(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	//hyperprov:allow locksafe fixture exercises the suppression path
	q.ch <- v
}

type rw struct {
	mu sync.RWMutex
	ch chan int
}

func (r *rw) badRLock() int {
	r.mu.RLock()
	v := <-r.ch // want "channel receive while holding r.mu"
	r.mu.RUnlock()
	return v
}
