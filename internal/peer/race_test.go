package peer

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentStartStop exercises the Start/Stop race: Stop reads the
// started flag while Start may be setting it from another goroutine (a
// peer torn down mid-startup). Run under -race this pins the atomic fix;
// without synchronization the detector flags the old plain-bool field.
func TestConcurrentStartStop(t *testing.T) {
	ord := soloBlocks(t)
	for i := 0; i < 50; i++ {
		f := newFixture(t)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			f.peer.Start(ord)
		}()
		go func() {
			defer wg.Done()
			f.peer.Stop()
		}()
		wg.Wait()
		f.peer.Stop() // idempotent regardless of interleaving
	}
}

// TestStopWithoutStart: a peer that never attached to a block stream stops
// cleanly (Stop must not wait on a goroutine that never ran).
func TestStopWithoutStart(t *testing.T) {
	f := newFixture(t)
	done := make(chan struct{})
	go func() {
		f.peer.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on a never-started peer")
	}
}
