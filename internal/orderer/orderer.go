package orderer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// ErrStopped is returned by Submit once the service has stopped.
var ErrStopped = errors.New("orderer: service stopped")

// Service is the interface both consenters implement: clients broadcast
// envelopes in, and readers pull the ordered chain out by block number.
type Service interface {
	// Submit enqueues an envelope for ordering.
	Submit(env blockstore.Envelope) error
	// Block returns block n, waiting until it is cut; it reports false once
	// stop closes, or once the service has stopped without cutting block n.
	// A reader states where it is and pulls what is above it, so one that
	// stops reading holds up nobody else.
	Block(n uint64, stop <-chan struct{}) (*blockstore.Block, bool)
	// Height returns the number of blocks ordered so far.
	Height() uint64
	// Metrics returns the service's counter registry.
	Metrics() *metrics.Registry
	// Stop terminates the service and waits for its goroutines.
	Stop()
}

// chain is the shared block-assembly core used by both consenters: it
// hash-chains batches into blocks and advances the height readers wait on.
type chain struct {
	mu      sync.Mutex
	store   *blockstore.Store
	height  blockstore.Height
	metrics *metrics.Registry

	// tracer, when set, receives one "order" span per envelope covering
	// enqueue (markEnqueued in the consenter loop) to block cut. enq holds
	// the pending enqueue timestamps; entries are consumed at cut, and the
	// map stays empty when no tracer is attached.
	tracer *trace.Recorder
	enq    map[string]time.Time
}

func newChain() *chain {
	return &chain{
		store:   blockstore.NewStore(),
		metrics: metrics.NewRegistry(),
		enq:     make(map[string]time.Time),
	}
}

// SetTracer attaches a trace recorder: each ordered envelope gains an
// "order" span covering enqueue (through replication, for raft) to block
// cut. Call before traffic flows.
func (c *chain) SetTracer(t *trace.Recorder) {
	c.mu.Lock()
	c.tracer = t
	c.mu.Unlock()
}

// markEnqueued timestamps an envelope's arrival at the consenter so the
// order span covers queueing plus batching (and, for raft, replication).
// A no-op without a tracer, so the untraced hot path stays allocation-free.
func (c *chain) markEnqueued(txID string) {
	c.mu.Lock()
	if c.tracer != nil && txID != "" {
		c.enq[txID] = time.Now()
	}
	c.mu.Unlock()
}

// appendBatch assembles the next block from a batch, appends it, and
// advances the height past it. The block is not re-hashed: NewBlock just
// computed its data hash, and each peer checks it at admission.
func (c *chain) appendBatch(batch []blockstore.Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := blockstore.NewBlock(c.store.Height(), c.store.LastHash(), batch)
	if err := c.store.Append(b); err != nil {
		// The block's number and previous hash are the store's own height
		// and tip, read under c.mu; a refusal is a broken invariant, not
		// input error.
		panic(fmt.Sprintf("orderer: append block %d: %v", b.Header.Number, err))
	}
	c.metrics.Counter(metrics.BatchesCut).Inc()
	c.metrics.Counter(metrics.EnvelopesOrdered).Add(int64(len(batch)))
	if c.tracer != nil {
		now := time.Now()
		for i := range batch {
			id := batch[i].TxID
			start, ok := c.enq[id]
			if !ok {
				continue // enqueued before the tracer was attached
			}
			delete(c.enq, id)
			c.tracer.Add(id, trace.Span{
				Stage:    trace.StageOrder,
				Peer:     "orderer",
				Start:    start,
				Duration: now.Sub(start),
			})
		}
	}
	c.height.Advance(b.Header.Number + 1)
}

// Block returns block n, waiting until it is cut (see Service).
func (c *chain) Block(n uint64, stop <-chan struct{}) (*blockstore.Block, bool) {
	if !c.height.Wait(n+1, stop) {
		return nil, false
	}
	b, err := c.store.GetByNumber(n)
	return b, err == nil
}

// Height returns the number of blocks ordered.
func (c *chain) Height() uint64 { return c.height.Load() }

// Metrics returns the ordering service's counters.
func (c *chain) Metrics() *metrics.Registry { return c.metrics }
