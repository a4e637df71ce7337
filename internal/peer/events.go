package peer

import (
	"encoding/json"
	"sync"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// SubscribeEvents streams the chaincode events of transactions that commit
// as valid on this peer from the moment of the call, in commit order, and
// returns the cancel that ends it (the NodeJS SDK's ChannelEventHub, for
// HyperProv's client library). It is a cursor over the committed blocks
// below the watermark, decoding events only because someone subscribed.
// Nothing is dropped for a late reader, and one that stops reading holds its
// own goroutine, nothing of the peer's. The channel closes on cancel
// (idempotent; it returns once the goroutine has) or when the peer stops.
func (p *Peer) SubscribeEvents() (events <-chan blockstore.ChaincodeEvent, cancel func()) {
	out := make(chan blockstore.ChaincodeEvent)
	done, exited := make(chan struct{}), make(chan struct{})
	mark := p.committer.Persisted()
	// from is the first block committed after the call. The cursor takes no
	// arguments so that leaktest.EventCursor counts it from the go statement
	// on (see leaktest).
	from := mark.Load()
	go func() {
		defer close(exited)
		defer close(out)
		for n := from; mark.Wait(n+1, done); n++ {
			b, err := p.blocks.GetByNumber(n)
			if err != nil {
				return
			}
			for i := range b.Envelopes {
				// A malformed event payload is skipped: its transaction
				// committed all the same.
				env, evs := &b.Envelopes[i], []shim.Event(nil)
				if b.TxValidation[i] != blockstore.TxValid || len(env.Events) == 0 || json.Unmarshal(env.Events, &evs) != nil {
					continue
				}
				for _, e := range evs {
					select {
					case out <- blockstore.ChaincodeEvent{TxID: env.TxID, BlockNum: n, Name: e.Name, Payload: e.Payload}:
					case <-done:
						return
					case <-p.stop:
						return
					}
				}
			}
		}
	}()
	var once sync.Once
	return out, func() { once.Do(func() { close(done) }); <-exited }
}
