package committer

import (
	"fmt"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// Replay re-commits blocks that already passed full validation in a
// previous process lifetime — the tail-replay half of crash recovery. The
// blocks come from the durable block store with their TxValidation flags
// settled, so stage-1 work (signature and policy checks) is skipped
// entirely: transactions the original run invalidated keep their stored
// code, and transactions it validated re-run only the deterministic MVCC
// walk, which must reproduce the stored verdict exactly. Any divergence
// means the state the replay started from does not match what the original
// run had at these blocks' boundary — corruption, not crash — and aborts
// the replay with an error rather than forking state from the ledger.
//
// Replay reads blocks by number from from up to its height, one block at a
// time. History locators are re-recorded when history is non-nil, so a
// recovered peer's GetKeyHistory matches an uninterrupted run's.
func Replay(state statedb.StateDB, history *historydb.DB, blocks blockstore.BlockStore, from uint64) error {
	return blockstore.Each(blocks, from, func(stored *blockstore.Block) error {
		return replayBlock(state, history, stored)
	})
}

// replayBlock re-applies one stored block. The stored block is shadowed
// like an ordered one (newTask): replay re-derives the codes, and the
// durable store's in-memory copy must never be written to, even with equal
// values.
func replayBlock(state statedb.StateDB, history *historydb.DB, stored *blockstore.Block) error {
	t := newTask(stored)
	t.preval = make([]PrevalResult, len(t.b.Envelopes))
	for i := range t.b.Envelopes {
		code := blockstore.TxValid
		if i < len(stored.TxValidation) {
			code = stored.TxValidation[i]
		}
		if code != blockstore.TxValid {
			t.preval[i] = PrevalResult{Code: code}
			continue
		}
		rws, err := rwset.Unmarshal(t.b.Envelopes[i].RWSet)
		if err != nil {
			// The original run parsed this rwset; failing now is corruption.
			return fmt.Errorf("committer: replay block %d tx %d: %w",
				t.b.Header.Number, i, err)
		}
		t.preval[i] = PrevalResult{Code: blockstore.TxValid, RWSet: rws}
	}
	mvccFinalize(state, t)
	for i, code := range t.b.TxValidation {
		if want := t.preval[i].Code; code != want && t.preval[i].Code == blockstore.TxValid {
			// mvccFinalize downgraded a stored-valid tx: the pre-state this
			// replay ran against differs from the original commit's.
			return fmt.Errorf("committer: replay block %d tx %d: stored %s, replayed %s",
				t.b.Header.Number, i, blockstore.TxValid, code)
		}
	}
	if err := applyState(state, t); err != nil {
		return fmt.Errorf("committer: replay block %d: %w", t.b.Header.Number, err)
	}
	if history != nil {
		history.RecordBatch(t.hist)
	}
	return nil
}
