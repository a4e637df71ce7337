package blockstore

import (
	"sync"
	"testing"
	"time"
)

// waitWithin runs h.Wait(n, stop) on its own goroutine and returns its
// answer, failing t if it does not come within a second.
func waitWithin(t *testing.T, h *Height, n uint64, stop <-chan struct{}) bool {
	t.Helper()
	got := make(chan bool, 1)
	go func() { got <- h.Wait(n, stop) }()
	select {
	case ok := <-got:
		return ok
	case <-time.After(time.Second):
		t.Fatalf("Wait(%d) still blocked after a second at height %d", n, h.Load())
		return false
	}
}

func TestHeightAdvanceWakesWaiters(t *testing.T) {
	var h Height
	if !h.Wait(0, nil) {
		t.Fatal("Wait(0) on the zero height")
	}
	const waiters = 8
	var wg sync.WaitGroup
	woke := make(chan uint64, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h.Wait(3, nil) {
				woke <- h.Load()
			}
		}()
	}
	h.Advance(1)
	h.Advance(3)
	h.Advance(2) // lower: ignored
	wg.Wait()
	close(woke)
	n := 0
	for got := range woke {
		if got != 3 {
			t.Errorf("waiter woke at height %d, want 3", got)
		}
		n++
	}
	if n != waiters || h.Load() != 3 {
		t.Errorf("%d of %d waiters woke; height %d", n, waiters, h.Load())
	}
}

func TestHeightStopAndClose(t *testing.T) {
	var h Height
	h.Advance(2)
	stop := make(chan struct{})
	close(stop)
	if !waitWithin(t, &h, 2, stop) {
		t.Error("a reached height reported false because stop was closed")
	}
	if waitWithin(t, &h, 3, stop) {
		t.Error("Wait past the height returned true on stop")
	}
	done := make(chan bool, 1)
	go func() { done <- h.Wait(5, nil) }()
	h.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Wait past a closed height returned true")
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not release a waiter")
	}
	if !waitWithin(t, &h, 2, nil) || waitWithin(t, &h, 3, nil) {
		t.Error("a closed height must still answer below it and refuse above it")
	}
}

// A txID that occurs twice is located at its first occurrence: the copy that
// could commit, not the one that lost to it.
func TestLocateFirstOccurrence(t *testing.T) {
	s := NewStore()
	dup := mkEnv("dup", "set")
	b, err := NewBlock(0, nil, []Envelope{dup, dup})
	if err != nil {
		t.Fatal(err)
	}
	b.TxValidation = []ValidationCode{TxValid, TxMVCCConflict}
	if err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	if loc, ok := s.Locate("dup"); !ok || loc.TxNum != 0 || loc.Code != TxValid {
		t.Errorf("Locate = %+v, %v; want the valid first copy", loc, ok)
	}
}
