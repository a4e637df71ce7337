package peer

import (
	"encoding/json"
	"slices"
	"sync"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// This file implements the peer's event hub: clients subscribe to the
// stream of committed chaincode events (the role Fabric's event service /
// the NodeJS SDK's ChannelEventHub plays for HyperProv's client library).

// eventHub fans committed events out to subscribers.
type eventHub struct {
	mu     sync.Mutex
	subs   []chan blockstore.ChaincodeEvent
	closed bool
}

// subscribe registers a buffered subscriber channel. Events that would
// overflow a slow subscriber are dropped for that subscriber (commit must
// never block on a client). cancel removes the subscriber and closes its
// channel — exactly once, whether it runs first, again, or after close.
func (h *eventHub) subscribe(buffer int) (events <-chan blockstore.ChaincodeEvent, cancel func()) {
	if buffer <= 0 {
		buffer = 256
	}
	ch := make(chan blockstore.ChaincodeEvent, buffer)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(ch)
		return ch, func() {}
	}
	h.subs = append(h.subs, ch)
	return ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		// Absent means already cancelled, or closed by the hub.
		if i := slices.Index(h.subs, ch); i >= 0 {
			h.subs = slices.Delete(h.subs, i, i+1)
			close(ch)
		}
	}
}

func (h *eventHub) publish(ev blockstore.ChaincodeEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range h.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall commits
		}
	}
}

func (h *eventHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, ch := range h.subs {
		close(ch)
	}
	h.subs = nil
}

// SubscribeEvents returns a stream of chaincode events from transactions
// that commit as valid on this peer, starting from the moment of the call,
// and the cancel that ends it. The channel closes on cancel or when the
// peer stops, whichever comes first; cancel is idempotent.
func (p *Peer) SubscribeEvents(buffer int) (events <-chan blockstore.ChaincodeEvent, cancel func()) {
	return p.events.subscribe(buffer)
}

// publishTxEvents decodes and publishes the events of one valid committed
// transaction.
func (p *Peer) publishTxEvents(txID string, blockNum uint64, eventBytes []byte) {
	if len(eventBytes) == 0 {
		return
	}
	var evs []shim.Event
	if err := json.Unmarshal(eventBytes, &evs); err != nil {
		return // malformed event payload: tx already committed, skip events
	}
	for _, e := range evs {
		p.events.publish(blockstore.ChaincodeEvent{
			TxID:     txID,
			BlockNum: blockNum,
			Name:     e.Name,
			Payload:  e.Payload,
		})
	}
}
