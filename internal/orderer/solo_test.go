package orderer

import (
	"fmt"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/device"
)

// collect drains blocks from sub until n envelopes have been seen or the
// timeout expires, returning the blocks.
func collect(t *testing.T, sub <-chan *blockstore.Block, n int, timeout time.Duration) []*blockstore.Block {
	t.Helper()
	var blocks []*blockstore.Block
	seen := 0
	deadline := time.After(timeout)
	for seen < n {
		select {
		case b, ok := <-sub:
			if !ok {
				t.Fatalf("stream closed after %d/%d envelopes", seen, n)
			}
			blocks = append(blocks, b)
			seen += len(b.Envelopes)
		case <-deadline:
			t.Fatalf("timeout after %d/%d envelopes", seen, n)
		}
	}
	return blocks
}

func TestSoloOrdersByCount(t *testing.T) {
	s := NewSolo(BatchConfig{MaxMessageCount: 4, BatchTimeout: time.Hour, PreferredMaxBytes: 1 << 30}, nil)
	defer s.Stop()
	sub := s.Subscribe()
	for i := 0; i < 8; i++ {
		if err := s.Submit(env(fmt.Sprintf("t%d", i), 16)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	blocks := collect(t, sub, 8, 5*time.Second)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(blocks))
	}
	if blocks[0].Header.Number != 0 || blocks[1].Header.Number != 1 {
		t.Errorf("block numbers = %d, %d", blocks[0].Header.Number, blocks[1].Header.Number)
	}
}

func TestSoloBatchTimeout(t *testing.T) {
	s := NewSolo(BatchConfig{MaxMessageCount: 1000, BatchTimeout: 30 * time.Millisecond, PreferredMaxBytes: 1 << 30}, nil)
	defer s.Stop()
	sub := s.Subscribe()
	start := time.Now()
	if err := s.Submit(env("lonely", 16)); err != nil {
		t.Fatal(err)
	}
	blocks := collect(t, sub, 1, 5*time.Second)
	elapsed := time.Since(start)
	if len(blocks[0].Envelopes) != 1 {
		t.Errorf("batch size = %d", len(blocks[0].Envelopes))
	}
	if elapsed < 20*time.Millisecond {
		t.Errorf("block cut after %v, before the batch timeout", elapsed)
	}
}

func TestSoloSubscribeReplays(t *testing.T) {
	s := NewSolo(BatchConfig{MaxMessageCount: 1, BatchTimeout: time.Hour, PreferredMaxBytes: 1 << 30}, nil)
	defer s.Stop()
	early := s.Subscribe()
	for i := 0; i < 3; i++ {
		if err := s.Submit(env(fmt.Sprintf("t%d", i), 8)); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, early, 3, 5*time.Second)

	// A late subscriber must replay all 3 blocks.
	late := s.Subscribe()
	blocks := collect(t, late, 3, 5*time.Second)
	if len(blocks) != 3 {
		t.Fatalf("late subscriber got %d blocks, want 3", len(blocks))
	}
	for i, b := range blocks {
		if b.Header.Number != uint64(i) {
			t.Errorf("replayed block %d has number %d", i, b.Header.Number)
		}
	}
}

func TestSoloChainsBlocks(t *testing.T) {
	s := NewSolo(BatchConfig{MaxMessageCount: 1, BatchTimeout: time.Hour, PreferredMaxBytes: 1 << 30}, nil)
	defer s.Stop()
	sub := s.Subscribe()
	for i := 0; i < 4; i++ {
		if err := s.Submit(env(fmt.Sprintf("t%d", i), 8)); err != nil {
			t.Fatal(err)
		}
	}
	blocks := collect(t, sub, 4, 5*time.Second)
	store := blockstore.NewStore()
	for _, b := range blocks {
		if err := store.Append(b); err != nil {
			t.Fatalf("chain linkage broken: %v", err)
		}
	}
	if err := store.VerifyChain(); err != nil {
		t.Errorf("VerifyChain: %v", err)
	}
}

func TestSoloStopFlushesPending(t *testing.T) {
	s := NewSolo(BatchConfig{MaxMessageCount: 1000, BatchTimeout: time.Hour, PreferredMaxBytes: 1 << 30}, nil)
	sub := s.Subscribe()
	if err := s.Submit(env("pending", 8)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the loop pick it up
	s.Stop()
	var got int
	for b := range sub {
		got += len(b.Envelopes)
	}
	if got != 1 {
		t.Errorf("flushed %d envelopes on stop, want 1", got)
	}
	if err := s.Submit(env("late", 8)); err == nil {
		t.Error("Submit after Stop succeeded")
	}
}

func TestSoloWithDeviceCost(t *testing.T) {
	exec := device.NewExecutor(device.RPi3BPlus, device.NopClock{}, 7)
	s := NewSolo(BatchConfig{MaxMessageCount: 1, BatchTimeout: time.Hour, PreferredMaxBytes: 1 << 30}, exec)
	defer s.Stop()
	sub := s.Subscribe()
	if err := s.Submit(env("t", 8)); err != nil {
		t.Fatal(err)
	}
	collect(t, sub, 1, 5*time.Second)
	if exec.BusyTime() == 0 {
		t.Error("orderer device cost not accounted")
	}
}

func TestSoloDoubleStop(t *testing.T) {
	s := NewSolo(BatchConfig{}, nil)
	s.Stop()
	s.Stop() // must not panic or deadlock
	if s.Height() != 0 {
		t.Errorf("height = %d", s.Height())
	}
}

// heightWithin reads s.Height() on its own goroutine and fails t unless it
// answers within a second.
func heightWithin(t *testing.T, s *Solo) uint64 {
	t.Helper()
	h := make(chan uint64, 1)
	go func() { h <- s.Height() }()
	select {
	case got := <-h:
		return got
	case <-time.After(time.Second):
		t.Fatal("Height did not answer within a second")
		return 0
	}
}

// submitAll submits n one-envelope batches on its own goroutine and reports
// the first error, or nil once all are accepted.
func submitAll(s *Solo, n int, prefix string) <-chan error {
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := s.Submit(env(fmt.Sprintf("%s%d", prefix, i), 8)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return done
}

// A Subscribe reader that never reads, beside one that does, cannot stall
// ordering: all 4,200 one-transaction blocks are cut and reach the reader,
// and Height answers throughout. (At 0531c99 the silent reader's 4,096-slot
// channel filled under the chain's lock: ordering stopped near 4,098
// submits and took Height down with it.) Bounded: Stop is called only on
// success, because at the parent it would hang too.
func TestSilentSubscriberCannotWedgeOrdering(t *testing.T) {
	const blocks = 4200
	s := NewSolo(BatchConfig{MaxMessageCount: 1, BatchTimeout: time.Hour, PreferredMaxBytes: 1 << 30}, nil)
	silent, reader := s.Subscribe(), s.Subscribe()
	submitted := submitAll(s, blocks, "w")
	deadline := time.After(20 * time.Second)
	for n := 0; n < blocks; n++ {
		if n%500 == 0 {
			heightWithin(t, s)
		}
		select {
		case b := <-reader:
			if b.Header.Number != uint64(n) {
				t.Fatalf("reader got block %d, want %d", b.Header.Number, n)
			}
		case <-deadline:
			t.Fatalf("reading subscriber stuck at block %d of %d", n, blocks)
		}
	}
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	if h := heightWithin(t, s); h != blocks {
		t.Fatalf("height = %d, want %d", h, blocks)
	}
	s.Stop()
	for range silent { // the adapter still owes it the whole chain, then closes
	}
}

// Subscribe on a chain of 4,100 blocks returns and replays blocks
// 0–4,099 in order. (At 0531c99 the replay filled a 4,096-slot channel under
// the chain's lock and Subscribe never returned.)
func TestSubscribeReplaysLongChain(t *testing.T) {
	const blocks = 4100
	s := NewSolo(BatchConfig{MaxMessageCount: 1, BatchTimeout: time.Hour, PreferredMaxBytes: 1 << 30}, nil)
	if err := <-submitAll(s, blocks, "r"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); heightWithin(t, s) < blocks; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("height %d of %d", s.Height(), blocks)
		}
	}
	subscribed := make(chan (<-chan *blockstore.Block), 1)
	go func() { subscribed <- s.Subscribe() }()
	var sub <-chan *blockstore.Block
	select {
	case sub = <-subscribed:
	case <-time.After(5 * time.Second):
		t.Fatalf("Subscribe on a %d-block chain did not return", blocks)
	}
	s.Stop()
	n := 0
	for b := range sub {
		if b.Header.Number != uint64(n) {
			t.Fatalf("replayed block %d at position %d", b.Header.Number, n)
		}
		n++
	}
	if n != blocks {
		t.Fatalf("replayed %d blocks, want %d", n, blocks)
	}
}
