package orderer

import (
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// frontEnd is the batching front end both consenters stand behind: the
// submission queue, the block cutter with its batch timer, the chain the
// ordered blocks come out of, and the stop handshake. What a consenter adds
// is what happens to a cut batch (run's emit).
type frontEnd struct {
	cfg     BatchConfig
	exec    *device.Executor
	chain   *chain
	in      chan blockstore.Envelope
	stop    chan struct{}
	done    chan struct{}
	stopMu  sync.Mutex
	stopped bool
}

func newFrontEnd(cfg BatchConfig, exec *device.Executor) *frontEnd {
	return &frontEnd{
		cfg:   cfg.withDefaults(),
		exec:  exec,
		chain: newChain(),
		in:    make(chan blockstore.Envelope, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Submit enqueues an envelope for ordering. It blocks under backpressure.
func (fe *frontEnd) Submit(env blockstore.Envelope) error {
	select {
	case <-fe.stop:
		return ErrStopped
	default:
	}
	select {
	case fe.in <- env:
		return nil
	case <-fe.stop:
		return ErrStopped
	}
}

// Subscribe returns the ordered block stream with full replay.
func (fe *frontEnd) Subscribe() <-chan *blockstore.Block { return fe.chain.subscribe() }

// Height returns the number of blocks ordered.
func (fe *frontEnd) Height() uint64 { return fe.chain.height() }

// Metrics returns the ordering service's counters.
func (fe *frontEnd) Metrics() *metrics.Registry { return fe.chain.metrics }

// SetTracer attaches a trace recorder: each ordered envelope gains an
// "order" span covering enqueue (through replication, for raft) to block
// cut. Call before traffic flows.
func (fe *frontEnd) SetTracer(t *trace.Recorder) { fe.chain.setTracer(t) }

// halt stops the batching loop and waits for it: a pending batch has been
// handed to emit by the time halt returns.
func (fe *frontEnd) halt() {
	fe.stopMu.Lock()
	if !fe.stopped {
		fe.stopped = true
		close(fe.stop)
	}
	fe.stopMu.Unlock()
	<-fe.done
}

// run is the batching loop: it cuts submitted envelopes into batches by
// count, size and timeout, and hands each non-empty batch to emit.
func (fe *frontEnd) run(emit func([]blockstore.Envelope)) {
	defer close(fe.done)

	cutter := newBlockCutter(fe.cfg)
	var timer *time.Timer
	var timeout <-chan time.Time

	// The batch timer runs in wall time; when the device clock is scaled,
	// scale the timeout identically so modeled behaviour is preserved.
	batchTimeout := fe.cfg.BatchTimeout
	if scale := fe.exec.Clock().Scale(); scale > 0 {
		batchTimeout = time.Duration(float64(batchTimeout) * scale)
	}

	armTimer := func() {
		if timer == nil {
			timer = time.NewTimer(batchTimeout)
			timeout = timer.C
		}
	}
	disarmTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timeout = nil
		}
	}
	flush := func() {
		disarmTimer()
		if batch := cutter.cut(); len(batch) > 0 {
			emit(batch)
		}
	}

	for {
		select {
		case env := <-fe.in:
			batches, pending, err := cutter.ordered(env)
			if err != nil {
				// Unserializable envelope: it can never be hashed into a
				// block, so drop it rather than poison a batch.
				fe.chain.metrics.Counter(metrics.EnvelopesRejected).Inc()
			} else {
				fe.chain.markEnqueued(env.TxID)
			}
			for _, b := range batches {
				emit(b)
			}
			if pending {
				armTimer()
			} else {
				disarmTimer()
			}
		case <-timeout:
			flush()
		case <-fe.stop:
			// Flush any pending batch so submitted txs are not lost.
			flush()
			return
		}
	}
}

// Solo is the single-node consenter (Fabric's "solo"), which the paper's
// deployments use: one Xeon machine (or one RPi) runs the orderer.
type Solo struct {
	*frontEnd
}

var _ Service = (*Solo)(nil)

// NewSolo creates and starts a solo ordering service. exec models the
// ordering machine's per-batch cost; it may be nil for zero-cost ordering.
func NewSolo(cfg BatchConfig, exec *device.Executor) *Solo {
	s := &Solo{newFrontEnd(cfg, exec)}
	go s.run(func(batch []blockstore.Envelope) {
		s.exec.Order()
		// appendBatch cannot fail here: numbers and hashes are generated
		// from the chain itself.
		_, _ = s.chain.appendBatch(batch)
	})
	return s
}

// Stop terminates the ordering loop and closes subscriber channels.
func (s *Solo) Stop() {
	s.halt()
	s.chain.close()
}
