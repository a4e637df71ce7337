// Package committer implements the peer's block-commit path. It offers two
// interchangeable engines over the same per-transaction validation logic:
//
//   - Serial replays the classic one-goroutine loop: each block's
//     transactions are signature-checked, MVCC-validated, and applied one
//     after another. It exists as the reference implementation and as the
//     baseline the commit benchmark compares against.
//
//   - Pipeline is the FastFabric-style three-stage pipeline. Stage 1
//     (pre-validation) fans endorsement-signature verification and rwset
//     deserialization across a worker pool; stage 2 (MVCC) walks the
//     block's transactions in order on one goroutine, applying one
//     accumulated UpdateBatch; stage 3 (persistence) appends the block,
//     records history, and advances the persisted watermark while stage 2
//     is already validating the next block.
//
// Both engines, and Replay (crash recovery's tail replay), run the same
// MVCC walk, mvccFinalize; stage 1 is the only parallel validation stage.
// They produce identical validation verdicts, final state and history for
// the same block stream — the equivalence test in this package pins that
// property.
package committer

import (
	"bytes"
	"runtime"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/statedb"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// PrevalResult is the outcome of stage-1 validation for one transaction:
// everything that does not depend on world-state versions (rwset parse,
// creator signature, endorsement policy). RWSet is the deserialized rwset
// when parsing succeeded, handed to the MVCC stage so the hot path parses
// each transaction exactly once.
type PrevalResult struct {
	Code  blockstore.ValidationCode
	RWSet *rwset.ReadWriteSet
}

// Verifier runs stage-1 validation for one transaction. Implementations
// must be safe for concurrent use: the pipeline calls Prevalidate from many
// workers at once.
type Verifier interface {
	Prevalidate(env *blockstore.Envelope) PrevalResult
}

// Config assembles a committer over a peer's ledger resources.
type Config struct {
	// State is the world-state database updates are applied to.
	State statedb.StateDB
	// History records per-key write history; may be nil.
	History *historydb.DB
	// Blocks is the append-only block store; its height seeds the
	// committer's next-expected block number. A durable peer passes a
	// *blockstore.FileStore here so stage-3 appends land on disk.
	Blocks blockstore.BlockStore
	// Verifier runs stage-1 validation. Required.
	Verifier Verifier
	// Workers sizes the pre-validation worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Metrics, when set, receives per-stage latency histograms
	// (metrics.CommitStage*).
	Metrics *metrics.Registry
	// Tracer, when set, receives per-transaction commit-stage spans (one
	// AddBatch per block and stage; trace IDs are the block's txIDs).
	Tracer *trace.Recorder
	// Name labels this committer's spans (usually the owning peer's name).
	Name string
	// OnAccepted, when set, is called synchronously from Submit after the
	// height check accepts a block and before it enters the pipeline. The
	// peer charges modeled block-transfer cost here.
	OnAccepted func(b *blockstore.Block)
	// OnCommitted, when set, is called once per committed block, in block
	// order, after the block and its history are persisted and before the
	// watermark passes it. The peer counts commits and completes traces here.
	OnCommitted func(b *blockstore.Block)
	// CheckpointEvery, when > 0 together with OnCheckpoint, captures a
	// consistent state snapshot at every block boundary whose 1-based
	// height is a multiple of it.
	CheckpointEvery uint64
	// OnCheckpoint receives checkpoint captures. The snapshot is taken in
	// the MVCC stage immediately after the block's batch is applied (so it
	// sits exactly at that block's boundary), but delivery happens in the
	// persistence stage after the block and its history are recorded and
	// behind the watermark advance — by then state, history, and block
	// store all agree on the capture's height. The recovery manager writes
	// durable checkpoint files from this hook.
	OnCheckpoint func(c Capture)
}

// Capture is one consistent state view at a block boundary. State is a
// height-stamped copy-on-write snapshot, not a materialized map: taking it
// in the MVCC stage costs O(1), so checkpoint boundaries no longer stall
// the apply path behind a full-state deep copy. The consumer (the recovery
// manager, in the persistence stage) materializes what it needs and MUST
// Release the snapshot.
type Capture struct {
	// Height is the number of blocks the snapshot reflects.
	Height uint64
	// StateHeight is the state database's version at the snapshot.
	StateHeight statedb.Version
	// State is the live state pinned at the boundary. The OnCheckpoint
	// consumer releases it.
	State statedb.Snapshot
	// IndexEntries is the serialized contents of the state database's
	// secondary indexes at the same boundary (nil when the state database
	// maintains none); restoring from them skips re-indexing every
	// document.
	IndexEntries map[string][]richquery.IndexEntry
}

// indexSnapshotter is implemented by state databases whose secondary
// indexes can be exported for checkpoints (statedb.IndexedStore).
type indexSnapshotter interface {
	IndexEntries() map[string][]richquery.IndexEntry
}

// wantCapture reports whether the block completing 1-based height h should
// be captured for a checkpoint.
func (cfg Config) wantCapture(h uint64) bool {
	return cfg.CheckpointEvery > 0 && cfg.OnCheckpoint != nil && h%cfg.CheckpointEvery == 0
}

func (cfg Config) workerCount() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Committer commits an ordered block stream. Submit accepts the next
// expected block (duplicates and out-of-order deliveries are dropped) and
// Sync blocks until every accepted block is fully persisted.
type Committer interface {
	// Submit offers a block. It reports whether the block was accepted —
	// false means a duplicate, an out-of-order delivery, a block failing
	// integrity checks (data hash, previous-hash linkage), or a closed
	// committer.
	Submit(b *blockstore.Block) bool
	// Sync blocks until every block accepted so far is persisted: state,
	// history, and block store all reflect it and OnCommitted has run.
	Sync()
	// Close drains in-flight blocks and releases resources. Submit after
	// Close returns false. Close is idempotent.
	Close()
}

// admissible reports whether b is the next expected block AND passes
// integrity checks: its data hash covers its envelopes and its header
// chains onto lastHash. Integrity is checked here — before any stage runs —
// because world state is applied in stage 2, ahead of the stage-3 ledger
// append: a block the store would reject must never reach the apply step,
// or state and ledger would silently fork. Rejected blocks do not consume
// their height, so the genuine block can still commit later (a tampered
// gossip delivery cannot wedge the peer).
func admissible(b *blockstore.Block, next uint64, lastHash []byte) bool {
	if b.Header.Number != next {
		return false
	}
	if next > 0 && !bytes.Equal(b.Header.PreviousHash, lastHash) {
		return false
	}
	return b.VerifyData() == nil
}

// task carries one block through the stages.
type task struct {
	b      *blockstore.Block
	preval []PrevalResult
	batch  *statedb.UpdateBatch
	hist   []historydb.KeyedEntry
	// capture is the consistent state snapshot taken right after this
	// block's apply, when its boundary is a checkpoint point; nil otherwise.
	capture *Capture
	// ids caches the block's transaction IDs for span batching.
	ids []string
}

// txIDs returns the block's transaction IDs, computed once per task.
func (t *task) txIDs() []string {
	if t.ids == nil {
		t.ids = make([]string, len(t.b.Envelopes))
		for i := range t.b.Envelopes {
			t.ids[i] = t.b.Envelopes[i].TxID
		}
	}
	return t.ids
}

// captureState pins a state snapshot at t's block boundary when the config
// asks for one. It must run immediately after applyState, before any later
// block is applied — that ordering is what makes the capture sit exactly at
// the block boundary. The pin itself is O(1) copy-on-write; only the index
// entries are copied here (their structures are not COW), and the full
// state materialization happens downstream in the persistence stage.
func captureState(cfg Config, t *task) {
	h := t.b.Header.Number + 1
	if !cfg.wantCapture(h) {
		return
	}
	snap := cfg.State.Snapshot()
	t.capture = &Capture{
		Height:      h,
		StateHeight: snap.Height(),
		State:       snap,
	}
	if ixs, ok := cfg.State.(indexSnapshotter); ok {
		t.capture.IndexEntries = ixs.IndexEntries()
	}
}

// newTask shadows the ordered block with a shallow copy that owns its
// validation flags: peers must not annotate the orderer's copy, and the
// verdict is all a peer adds. The envelopes — immutable once encoded — are
// shared with the orderer and every other committer of this block, cached
// encodings included, so persist and gossip reuse the bytes the orderer
// produced.
func newTask(ordered *blockstore.Block) *task {
	shadow := *ordered
	shadow.TxValidation = make([]blockstore.ValidationCode, len(shadow.Envelopes))
	return &task{b: &shadow}
}

// prevalidate runs stage 1 for every transaction of the block, fanning the
// work across up to `workers` goroutines. Results land at their
// transaction's index, so downstream stages see block order regardless of
// which worker finished first.
func prevalidate(v Verifier, b *blockstore.Block, workers int) []PrevalResult {
	res := make([]PrevalResult, len(b.Envelopes))
	if workers > len(b.Envelopes) {
		workers = len(b.Envelopes)
	}
	if workers <= 1 {
		for i := range b.Envelopes {
			res[i] = v.Prevalidate(&b.Envelopes[i])
		}
		return res
	}
	// Striped assignment: worker w takes txs w, w+workers, w+2*workers, …
	// Static striping avoids a shared counter; per-tx cost is dominated by
	// signature verification, which is uniform enough that stripes balance.
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := w; i < len(b.Envelopes); i += workers {
				res[i] = v.Prevalidate(&b.Envelopes[i])
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	return res
}

// mvccFinalize is stage 2, the MVCC walk Serial, Pipeline and Replay
// share: in transaction order it settles each transaction's final
// validation code (pre-validated transactions can still lose an MVCC
// conflict), and accumulates one state UpdateBatch plus the block's history
// entries. It reads state versions but does not apply the batch — the
// caller does.
func mvccFinalize(state statedb.StateDB, t *task) {
	b := t.b
	t.batch = statedb.NewUpdateBatch()
	blockWrites := make(map[string]bool)
	for i := range b.Envelopes {
		env := &b.Envelopes[i]
		pr := t.preval[i]
		code := pr.Code
		if code == blockstore.TxValid {
			if err := rwset.Validate(pr.RWSet, state, blockWrites); err != nil {
				code = blockstore.TxMVCCConflict
			}
		}
		b.TxValidation[i] = code
		if code != blockstore.TxValid {
			continue
		}
		ver := statedb.Version{BlockNum: b.Header.Number, TxNum: uint64(i)}
		for _, w := range pr.RWSet.Writes {
			blockWrites[w.Key] = true
			if w.IsDelete {
				t.batch.Delete(w.Key, ver)
			} else {
				t.batch.Put(w.Key, w.Value, ver)
			}
			t.hist = append(t.hist, historydb.KeyedEntry{Key: w.Key, Entry: historydb.Entry{
				TxID:      env.TxID,
				BlockNum:  b.Header.Number,
				TxNum:     uint64(i),
				Value:     w.Value,
				IsDelete:  w.IsDelete,
				Timestamp: env.Timestamp,
			}})
		}
	}
}

// applyState applies the block's accumulated batch at the block's commit
// height. A height regression (replayed block against restored state) is
// reported so the block is dropped rather than persisted twice.
func applyState(state statedb.StateDB, t *task) error {
	height := statedb.Version{
		BlockNum: t.b.Header.Number,
		TxNum:    uint64(len(t.b.Envelopes)),
	}
	return state.ApplyUpdates(t.batch, height)
}

// persist runs stage 3 for one block: history entries, block-store append,
// and the committed callback. Admission already checked sequence, linkage,
// and data integrity, so Append cannot fail here short of a programming
// error; the guard stays so a bug surfaces as a missing commit callback
// rather than a corrupted store.
//
// The persist span is recorded BEFORE OnCommitted fires: the peer completes
// each transaction's trace from its commit callback, and a span added after
// Complete would be lost.
func persist(cfg Config, t *task, start time.Time) {
	if cfg.History != nil {
		cfg.History.RecordBatch(t.hist)
	}
	if err := cfg.Blocks.Append(t.b); err != nil {
		return
	}
	cfg.Tracer.AddBatch(t.txIDs(), trace.StageCommitPersist, cfg.Name, start, stageElapsed(start))
	if cfg.OnCommitted != nil {
		cfg.OnCommitted(t.b)
	}
}

// observe records one stage-latency sample when metrics are configured.
// The name is always one of the CommitStage* constants forwarded by the
// stage loops, so the histogram family set stays fixed.
func observe(reg *metrics.Registry, name string, since time.Time) {
	if reg != nil {
		//hyperprov:allow metricnames constant CommitStage* names forwarded by the stage loops
		reg.Histogram(name).Observe(stageElapsed(since))
	}
}
