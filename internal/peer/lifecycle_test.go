package peer

import (
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
)

func TestStartStopConsumesStream(t *testing.T) {
	f := newFixture(t)
	blocks := make(chan *blockstore.Block, 4)
	f.peer.Start(blocks)

	prop := f.propose(InitFunction)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	env := f.envelopeFor(prop, resp)
	b, err := blockstore.NewBlock(0, nil, []blockstore.Envelope{env})
	if err != nil {
		t.Fatal(err)
	}
	wait := f.peer.RegisterTxListener(env.TxID)
	blocks <- b
	select {
	case ev := <-wait:
		if ev.Code != blockstore.TxValid {
			t.Errorf("code = %s", ev.Code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stream-driven commit did not happen")
	}
	f.peer.Stop()
	f.peer.Stop() // idempotent
}

func TestSubscribeEventsDirect(t *testing.T) {
	f := newFixture(t)
	events, cancel := f.peer.SubscribeEvents(8)
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
	late, cancelLate := f.peer.SubscribeEvents(1)
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

	if got := f.peer.BlocksFrom(0); len(got) != 1 {
		t.Fatalf("BlocksFrom = %d blocks", len(got))
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
	future, err := blockstore.NewBlock(5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
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
	b, err := blockstore.NewBlock(0, nil, []blockstore.Envelope{
		{Args: [][]byte{make([]byte, 2048)}, RWSet: make([]byte, 512)},
	})
	if err != nil {
		t.Fatal(err)
	}
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

// A cancelled subscription leaves the hub: its channel closes exactly once
// — whether cancel runs once, twice, or after the peer stopped — and
// publishes that race the cancels never send on a closed channel.
func TestSubscribeEventsCancel(t *testing.T) {
	f := newFixture(t)
	const cancelled, abandoned = 5, 5
	var cancels []func()
	var streams []<-chan blockstore.ChaincodeEvent
	for i := 0; i < cancelled+abandoned; i++ {
		events, cancel := f.peer.SubscribeEvents(1)
		streams, cancels = append(streams, events), append(cancels, cancel)
	}
	subscribers := func() int {
		f.peer.events.mu.Lock()
		defer f.peer.events.mu.Unlock()
		return len(f.peer.events.subs)
	}
	if got := subscribers(); got != cancelled+abandoned {
		t.Fatalf("hub holds %d subscribers, want %d", got, cancelled+abandoned)
	}

	published := make(chan struct{})
	go func() { // commits in flight while subscribers leave
		defer close(published)
		for i := 0; i < 200; i++ {
			f.peer.publishTxEvents("tx", uint64(i), []byte(`[{"name":"provenance.set","payload":"aw=="}]`))
		}
	}()
	for _, cancel := range cancels[:cancelled] {
		cancel()
		cancel() // idempotent
	}
	<-published
	if got := subscribers(); got != abandoned {
		t.Errorf("hub holds %d subscribers after %d of %d cancelled, want %d", got, cancelled, cancelled+abandoned, abandoned)
	}
	for _, events := range streams[:cancelled] {
		for range events { // drains what was buffered, then must be closed
		}
	}

	f.peer.Stop()
	for _, cancel := range cancels { // after the hub closed every channel itself
		cancel()
	}
	if got := subscribers(); got != 0 {
		t.Errorf("hub holds %d subscribers after Stop", got)
	}
	for _, events := range streams[cancelled:] {
		for range events {
		}
	}
}
