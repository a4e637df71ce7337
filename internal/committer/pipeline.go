package committer

import (
	"sync"
	"sync/atomic"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// pipelineDepth is the buffer between adjacent stages. A small buffer is
// enough to keep every stage busy; a deep one would only let state run far
// ahead of the persisted watermark.
const pipelineDepth = 2

// Pipeline is the three-stage parallel commit path:
//
//	Submit ─▶ [stage 1: pre-validation, worker pool]
//	       ─▶ [stage 2: MVCC walk + state apply, sequential]
//	       ─▶ [stage 3: history + block append + watermark, async]
//
// Block N's persistence overlaps block N+1's validation. World state is
// applied at the end of stage 2 (the next block's MVCC check needs it);
// everything that does not gate validation — history writes, the block-file
// append, commit events — happens in stage 3. The watermark tracks stage-3
// completion, so Sync gives readers committed-only visibility.
type Pipeline struct {
	cfg     Config
	workers int

	// submitMu serializes admission so concurrent deliveries (ordering
	// stream and gossip) enqueue consecutive blocks in order.
	submitMu sync.Mutex
	next     uint64 // next block number to admit
	lastHash []byte // header hash of the last admitted block
	closed   bool

	// admitted mirrors next so Sync can snapshot it without submitMu —
	// Submit holds that mutex across modeled transfer costs and a possibly
	// blocking enqueue, and queries must not stall behind admission.
	admitted atomic.Uint64

	// mark is the persisted watermark: the next block number not yet fully
	// persisted, as the height Sync and the peer's readers wait on.
	mark blockstore.Height

	prevalCh  chan *task
	mvccCh    chan *task
	persistCh chan *task
	wg        sync.WaitGroup
}

var _ Committer = (*Pipeline)(nil)

// New creates and starts a pipelined committer expecting block number
// cfg.Blocks.Height() next.
func New(cfg Config) *Pipeline {
	p := &Pipeline{
		cfg:       cfg,
		workers:   cfg.workerCount(),
		next:      cfg.Blocks.Height(),
		lastHash:  cfg.Blocks.LastHash(),
		prevalCh:  make(chan *task, pipelineDepth),
		mvccCh:    make(chan *task, pipelineDepth),
		persistCh: make(chan *task, pipelineDepth),
	}
	p.admitted.Store(p.next)
	p.mark.Advance(p.next)
	p.wg.Add(3)
	go p.prevalStage()
	go p.mvccStage()
	go p.persistStage()
	return p
}

// Submit admits the next expected block into the pipeline and returns
// without waiting for it to commit. Duplicates, out-of-order deliveries,
// integrity-failing blocks, and submissions after Close are dropped.
func (p *Pipeline) Submit(ordered *blockstore.Block) bool {
	p.submitMu.Lock()
	defer p.submitMu.Unlock()
	if p.closed || !admissible(ordered, p.next, p.lastHash) {
		return false
	}
	p.next++
	p.admitted.Store(p.next)
	p.lastHash = ordered.Header.Hash()
	if p.cfg.OnAccepted != nil {
		p.cfg.OnAccepted(ordered)
	}
	// The send stays under submitMu so admission order equals queue order;
	// backpressure from a full stage queue is bounded by pipelineDepth and
	// is exactly the admission throttle the pipeline wants.
	//hyperprov:allow locksafe ordered admission requires the send under submitMu
	p.prevalCh <- newTask(ordered)
	return true
}

// stage 1: fan signature verification and rwset parsing across workers.
func (p *Pipeline) prevalStage() {
	defer p.wg.Done()
	defer close(p.mvccCh)
	for t := range p.prevalCh {
		start := stageStart()
		t.preval = prevalidate(p.cfg.Verifier, t.b, p.workers)
		observe(p.cfg.Metrics, metrics.CommitStagePreval, start)
		p.cfg.Tracer.AddBatch(t.txIDs(), trace.StageCommitPreval, p.cfg.Name, start, stageElapsed(start))
		p.mvccCh <- t
	}
}

// stage 2: the sequential MVCC walk — one accumulated batch per block,
// applied to world state before the next block's walk begins.
func (p *Pipeline) mvccStage() {
	defer p.wg.Done()
	defer close(p.persistCh)
	for t := range p.mvccCh {
		start := stageStart()
		mvccFinalize(p.cfg.State, t)
		err := applyState(p.cfg.State, t)
		if err == nil {
			// Snapshot checkpoint boundaries here, before the next block's
			// apply can move state past them; delivery waits for stage 3.
			captureState(p.cfg, t)
		}
		observe(p.cfg.Metrics, metrics.CommitStageMVCC, start)
		p.cfg.Tracer.AddBatch(t.txIDs(), trace.StageCommitMVCC, p.cfg.Name, start, stageElapsed(start))
		if err != nil {
			// Replayed block against restored state: drop, but still move
			// the watermark so Sync cannot wedge.
			p.mark.Advance(t.b.Header.Number + 1)
			continue
		}
		p.persistCh <- t
	}
}

// stage 3: persistence and notification, overlapping the next block's
// validation.
func (p *Pipeline) persistStage() {
	defer p.wg.Done()
	for t := range p.persistCh {
		start := stageStart()
		persist(p.cfg, t, start)
		observe(p.cfg.Metrics, metrics.CommitStagePersist, start)
		p.mark.Advance(t.b.Header.Number + 1)
		// Checkpoint delivery runs behind the watermark: queries already
		// see the block while the durable checkpoint is being written.
		if t.capture != nil {
			p.cfg.OnCheckpoint(*t.capture)
		}
	}
}

// Sync blocks until every block admitted before the call is fully
// persisted (stage 3 complete, OnCommitted delivered). It deliberately
// avoids submitMu: a query must not wait behind an in-flight Submit that
// is charging modeled transfer cost or blocked on a full stage queue; and
// when nothing is in flight it returns on two atomic loads.
func (p *Pipeline) Sync() { p.mark.Wait(p.admitted.Load(), nil) }

// Persisted is the watermark — the number of fully persisted blocks, as a
// height: block n is persisted and OnCommitted has run for it once it
// reaches n+1. Close closes it, releasing readers waiting past the end.
func (p *Pipeline) Persisted() *blockstore.Height { return &p.mark }

// Close drains in-flight blocks, stops the stage goroutines and closes the
// watermark. It is idempotent and safe to call concurrently with Submit.
func (p *Pipeline) Close() {
	p.submitMu.Lock()
	if p.closed {
		p.submitMu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.prevalCh)
	p.submitMu.Unlock()
	p.wg.Wait()
	p.mark.Close()
}
