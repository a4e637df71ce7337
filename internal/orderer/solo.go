package orderer

import (
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/metrics"
)

// frontEnd is the batching front end both consenters stand behind: the
// submission queue, the block cutter with its batch timer, the chain the
// ordered blocks come out of (whose Block, Height, Metrics and SetTracer it
// promotes), and the stop handshake. What a consenter adds is what happens
// to a cut batch (run's emit).
type frontEnd struct {
	*chain
	cfg      BatchConfig
	exec     *device.Executor
	in       chan blockstore.Envelope
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
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

// Subscribe adapts Block to a channel, for the benchmark's orderer probe and
// tests: every block from 0, closed after the last once the service stops.
// A reader that stops reading parks only the goroutine behind it.
func (fe *frontEnd) Subscribe() <-chan *blockstore.Block {
	ch := make(chan *blockstore.Block)
	go func() {
		defer close(ch)
		for n := uint64(0); ; n++ {
			b, ok := fe.Block(n, nil)
			if !ok {
				return
			}
			ch <- b
		}
	}()
	return ch
}

// halt stops the batching loop and waits for it: a pending batch has been
// handed to emit by the time halt returns.
func (fe *frontEnd) halt() {
	fe.stopOnce.Do(func() { close(fe.stop) })
	<-fe.done
}

// run is the batching loop: it cuts submitted envelopes into batches by
// count, size and timeout, and hands each non-empty batch to emit.
func (fe *frontEnd) run(emit func([]blockstore.Envelope)) {
	defer close(fe.done)

	cutter := newBlockCutter(fe.cfg)
	var timer *time.Timer
	var timeout <-chan time.Time

	armTimer := func() {
		if timer == nil {
			timer = time.NewTimer(fe.cfg.BatchTimeout)
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
		s.chain.appendBatch(batch)
	})
	return s
}

// Stop terminates the ordering loop, flushing a pending batch, and closes
// the height: readers waiting past the last block return.
func (s *Solo) Stop() {
	s.halt()
	s.chain.height.Close()
}
