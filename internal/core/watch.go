package core

import "sync"

// RecordEvent notifies a watcher that a provenance record committed.
type RecordEvent struct {
	// Key is the provenance record key that was set or deleted.
	Key string
	// TxID is the committing transaction.
	TxID string
	// BlockNum is the committing block.
	BlockNum uint64
}

// Watch streams committed provenance-record writes ("provenance.set"
// chaincode events) on the client's channel, starting from now — the event
// subscription the paper's NodeJS library exposes for reacting to new data
// items at the edge. Nothing is dropped: a watcher that reads late still
// gets every record, in commit order. The channel closes after stop
// (idempotent) or when the network stops; a watcher that stops reading must
// call stop.
func (c *Client) Watch() (records <-chan RecordEvent, stop func()) {
	events, cancel := c.gw.Events()
	out := make(chan RecordEvent)
	done := make(chan struct{})
	go func() {
		defer close(out)
		for ev := range events {
			if ev.Name != "provenance.set" {
				continue
			}
			select {
			case out <- RecordEvent{Key: string(ev.Payload), TxID: ev.TxID, BlockNum: ev.BlockNum}:
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return out, func() {
		once.Do(func() { close(done) })
		cancel() // closes events: a goroutine waiting in the range returns too
	}
}
