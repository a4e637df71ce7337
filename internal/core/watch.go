package core

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
// chaincode events) observed on the client's commit peer, starting from
// now. The channel closes when the network stops. This mirrors the event
// subscription the paper's NodeJS library exposes for reacting to new data
// items at the edge.
func (c *Client) Watch(buffer int) <-chan RecordEvent {
	events := c.gw.Channel().Peers()[0].SubscribeEvents(buffer)
	out := make(chan RecordEvent, buffer)
	go func() {
		defer close(out)
		for ev := range events {
			if ev.Name != "provenance.set" {
				continue
			}
			out <- RecordEvent{Key: string(ev.Payload), TxID: ev.TxID, BlockNum: ev.BlockNum}
		}
	}()
	return out
}
