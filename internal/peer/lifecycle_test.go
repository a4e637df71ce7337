package peer

import (
	"fmt"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/leaktest"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/orderer"
)

// soloBlocks is a one-envelope-per-block solo orderer for a peer to pull.
func soloBlocks(t *testing.T) *orderer.Solo {
	s := orderer.NewSolo(orderer.BatchConfig{MaxMessageCount: 1, BatchTimeout: time.Hour}, nil)
	t.Cleanup(s.Stop)
	return s
}

func TestStartStopConsumesStream(t *testing.T) {
	f := newFixture(t)
	ord := soloBlocks(t)
	f.peer.Start(ord)

	prop := f.propose(InitFunction)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	env := f.envelopeFor(prop, resp)
	if err := ord.Submit(env); err != nil {
		t.Fatal(err)
	}
	if loc := f.committed(env.TxID); loc.Code != blockstore.TxValid {
		t.Errorf("code = %s", loc.Code)
	}
	f.peer.Stop()
	f.peer.Stop() // idempotent
	leaktest.Settle(t, 0, leaktest.PeerFeed)
}

// A peer stopped before its orderer leaves no feed goroutine behind, and the
// orderer stopping afterwards has nobody to wake (the reverse order ends the
// feed from the orderer's side).
func TestStopBeforeOrderer(t *testing.T) {
	base := leaktest.Count(leaktest.PeerFeed)
	for _, peerFirst := range []bool{true, false} {
		f := newFixture(t)
		ord := orderer.NewSolo(orderer.BatchConfig{MaxMessageCount: 1}, nil)
		f.peer.Start(ord)
		if peerFirst {
			f.peer.Stop()
			leaktest.Settle(t, base, leaktest.PeerFeed)
			ord.Stop()
		} else {
			ord.Stop()
			leaktest.Settle(t, base, leaktest.PeerFeed)
			f.peer.Stop()
		}
	}
}

func TestSubscribeEventsDirect(t *testing.T) {
	f := newFixture(t)
	events, cancel := f.peer.SubscribeEvents()
	defer cancel() // after Stop: must not close the channel a second time

	// Init emits provenance.init; drive it through CommitBlock.
	prop := f.propose(InitFunction)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	f.commitEnvs(f.envelopeFor(prop, resp))

	select {
	case ev := <-events:
		if ev.Name != "provenance.init" {
			t.Errorf("event = %+v", ev)
		}
		if ev.BlockNum != 0 {
			t.Errorf("block = %d", ev.BlockNum)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event delivered")
	}
	// Stop closes subscriber channels.
	f.peer.Stop()
	if _, ok := <-events; ok {
		// Drain anything buffered, then expect close.
		for range events {
		}
	}
	// Subscribing after stop yields a closed channel.
	late, cancelLate := f.peer.SubscribeEvents()
	if _, ok := <-late; ok {
		t.Error("post-stop subscription delivered an event")
	}
	cancelLate()
}

func TestGossipHooksServeAndAccept(t *testing.T) {
	f := newFixture(t)
	prop := f.propose(InitFunction)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	b := f.commitEnvs(f.envelopeFor(prop, resp))

	var served int
	if err := f.peer.Blocks(0, func(*blockstore.Block) error { served++; return nil }); err != nil || served != 1 {
		t.Fatalf("Blocks = %d blocks, %v", served, err)
	}
	// A second peer accepts the block via the gossip delivery hook.
	signer, err := f.ca.Enroll("peer1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	p2 := newVolatile(t, Config{Name: "peer1", Signer: signer, MSP: f.msp}, "ch")
	if err := p2.InstallChaincode(provenance.ChaincodeName, provenance.New(),
		endorser.SignedBy("Org1MSP")); err != nil {
		t.Fatal(err)
	}
	// Delivery is asynchronous (Submit only); Sync flushes the pipeline the
	// way gossip does once per pulled batch.
	p2.DeliverBlock(b)
	p2.Sync()
	if p2.Height() != 1 {
		t.Fatalf("gossiped height = %d", p2.Height())
	}
	// Duplicate and out-of-order deliveries are ignored.
	p2.DeliverBlock(b)
	future := blockstore.NewBlock(5, nil, nil)
	p2.DeliverBlock(future)
	p2.Sync()
	if p2.Height() != 1 {
		t.Errorf("height after bogus deliveries = %d", p2.Height())
	}
}

func TestUpgradeChaincodeDirect(t *testing.T) {
	f := newFixture(t)
	if err := f.peer.UpgradeChaincode("ghost", provenance.New(), nil); err == nil {
		t.Error("upgrade of unknown chaincode succeeded")
	}
	if err := f.peer.UpgradeChaincode(provenance.ChaincodeName, provenance.New(),
		endorser.SignedBy("Org1MSP")); err != nil {
		t.Errorf("upgrade: %v", err)
	}
}

func TestAccessorsAndMetrics(t *testing.T) {
	f := newFixture(t)
	if f.peer.Name() != "peer0" {
		t.Errorf("Name = %q", f.peer.Name())
	}
	if f.peer.Executor() != nil {
		t.Error("expected nil executor in fixture")
	}
	prop := f.propose(InitFunction)
	if _, err := f.peer.ProcessProposal(prop); err != nil {
		t.Fatal(err)
	}
	if got := f.peer.Metrics().Counter(metrics.EndorsementsServed).Value(); got != 1 {
		t.Errorf("endorsements_served = %d", got)
	}
}

func TestWireSizeEstimates(t *testing.T) {
	prop := &endorser.Proposal{Args: [][]byte{make([]byte, 1000)}, Creator: make([]byte, 100)}
	if got := proposalWireSize(prop); got < 1100 {
		t.Errorf("proposalWireSize = %d", got)
	}
	b := blockstore.NewBlock(0, nil, []blockstore.Envelope{
		{Args: [][]byte{make([]byte, 2048)}, RWSet: make([]byte, 512)},
	})
	if got := blockWireSize(b); got < 2560 {
		t.Errorf("blockWireSize = %d", got)
	}
	// An executor-backed peer accounts transfer costs during commit.
	exec := device.NewExecutor(device.XeonE51603, device.NopClock{}, 1)
	f := newFixture(t)
	f.peer.exec = exec
	initProp := f.propose(InitFunction)
	resp, err := f.peer.ProcessProposal(initProp)
	if err != nil {
		t.Fatal(err)
	}
	f.commitEnvs(f.envelopeFor(initProp, resp))
	if exec.BusyTime() == 0 {
		t.Error("no device cost accounted")
	}
}

// An event stream ends its goroutine whether cancel runs once, twice, or
// after the peer stopped, and whether or not its consumer was reading — with
// commits in flight throughout.
func TestSubscribeEventsCancel(t *testing.T) {
	base := leaktest.Count(leaktest.EventCursor)
	f := newFixture(t)
	const cancelled, abandoned = 5, 5
	var cancels []func()
	var streams []<-chan blockstore.ChaincodeEvent
	for i := 0; i < cancelled+abandoned; i++ {
		events, cancel := f.peer.SubscribeEvents()
		streams, cancels = append(streams, events), append(cancels, cancel)
	}
	if got := leaktest.Count(leaktest.EventCursor) - base; got != cancelled+abandoned {
		t.Fatalf("%d event cursors running, want %d", got, cancelled+abandoned)
	}

	left := make(chan struct{})
	go func() { // subscribers leave while commits are in flight
		defer close(left)
		for _, cancel := range cancels[:cancelled] {
			cancel() // returns once the cursor has, whatever it was sending
			cancel() // idempotent
		}
	}()
	for i := 0; i < 20; i++ {
		f.set(fmt.Sprintf("k%d", i), "c")
	}
	<-left
	if got := leaktest.Count(leaktest.EventCursor) - base; got != abandoned {
		t.Errorf("%d event cursors running after %d of %d cancelled, want %d", got, cancelled, cancelled+abandoned, abandoned)
	}
	for _, events := range streams[:cancelled] {
		for range events { // closed by cancel
		}
	}

	f.peer.Stop() // the abandoned consumers are parked in a send nobody takes
	leaktest.Settle(t, base, leaktest.EventCursor)
	for _, cancel := range cancels { // after the stream ended by itself
		cancel()
	}
	for _, events := range streams[cancelled:] {
		for range events {
		}
	}
}

// A consumer that reads only after five events committed receives all five,
// in commit order: nothing is dropped for a reader that is late.
func TestLateEventReaderGetsEveryEvent(t *testing.T) {
	f := newFixture(t)
	events, cancel := f.peer.SubscribeEvents()
	defer cancel()
	const n = 5
	for i := 0; i < n; i++ {
		if code := f.set(fmt.Sprintf("late-%d", i), "c"); code != blockstore.TxValid {
			t.Fatalf("set %d: %s", i, code)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case ev := <-events:
			if want := fmt.Sprintf("late-%d", i); string(ev.Payload) != want || ev.Name != "provenance.set" {
				t.Fatalf("event %d = %s %q, want provenance.set %q", i, ev.Name, ev.Payload, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("received %d of %d committed events", i, n)
		}
	}
}
