package recovery

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// BlockFilePath returns the block file path for one channel of a peer data
// directory: every channel gets its own ledger file, blocks-<channel>.hpb,
// so N channels of one host never share an append stream.
func BlockFilePath(dataDir, channel string) string {
	return filepath.Join(dataDir, "blocks-"+channel+".hpb")
}

// CheckpointDir returns the checkpoint directory for one channel of a peer
// data directory, checkpoints/<channel>/, giving every channel an
// independent recovery root.
func CheckpointDir(dataDir, channel string) string {
	return filepath.Join(dataDir, "checkpoints", channel)
}

// Opened is a peer's recovered ledger: durable block file plus rebuilt
// soft state, mutually consistent at Blocks.Height().
type Opened struct {
	// State is the recovered world state, exactly at the block file's
	// height. It declares no rich-query index: installing a chaincode
	// defines its indexes and builds them from the recovered documents
	// (Store.DefineIndexes), as on a fresh peer.
	State *statedb.Store
	// History is the recovered per-key history index, over Blocks.
	History *historydb.DB
	// Blocks is the open durable block store.
	Blocks *blockstore.FileStore
	// CheckpointHeight is the height of the checkpoint recovery restored
	// from (0 when it replayed from genesis).
	CheckpointHeight uint64
	// Replayed is the number of tail blocks replayed on top of the
	// checkpoint.
	Replayed int
}

// Open recovers one channel's ledger from dataDir (created if absent): the
// block file blocks-<channel>.hpb and the checkpoints under
// checkpoints/<channel>/.
//
//  1. open the block file, discarding a crash-torn tail and refusing
//     mid-file corruption (every block it holds was fsynced by its append);
//  2. restore the newest valid checkpoint whose height the block file
//     confirms (skipping damaged or too-new candidates);
//  3. re-index history from the blocks below the checkpoint;
//  4. replay only the block tail after the checkpoint through the
//     committer's replay path, rebuilding state and history to the exact
//     pre-crash fingerprint. No rich-query index exists yet, so a
//     replayed query read is re-validated by a scan, which answers as an
//     index would.
//
// With no usable checkpoint the replay starts from genesis — slower, never
// wrong.
func Open(dataDir, channel string) (*Opened, error) {
	if channel == "" {
		return nil, errors.New("recovery: open without a channel")
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: mkdir %s: %w", dataDir, err)
	}
	blocks, err := blockstore.OpenFileStore(BlockFilePath(dataDir, channel))
	if err != nil {
		return nil, err
	}
	state := statedb.New()
	history := historydb.NewIndex(blocks)
	out := &Opened{State: state, History: history, Blocks: blocks}

	from := uint64(0)
	ck, err := LoadLatest(CheckpointDir(dataDir, channel), blocks.Height())
	switch {
	case err == nil:
		// The checkpoint was decoded moments ago and is dropped after
		// this block: the state takes its entries over.
		state.Restore(ck.State, ck.StateHeight)
		from = ck.Height
		out.CheckpointHeight = ck.Height
	case errors.Is(err, ErrNoCheckpoint):
		// Fresh directory or no trustworthy checkpoint: full replay.
	default:
		blocks.Close()
		return nil, err
	}

	if err := indexHistory(history, blocks, from); err != nil {
		blocks.Close()
		return nil, err
	}
	if err := committer.Replay(state, history, blocks, from); err != nil {
		blocks.Close()
		return nil, err
	}
	h := blocks.Height()
	out.Replayed = int(h - from)
	if h > 0 {
		if sh := state.Height(); sh.BlockNum != h-1 {
			blocks.Close()
			return nil, fmt.Errorf("recovery: state height %v after replay, block file height %d", sh, h)
		}
	}
	return out, nil
}

// indexHistory records the history locators of blocks [0, to), scanning
// each valid transaction's stored rwset for its write keys.
func indexHistory(history *historydb.DB, blocks blockstore.BlockStore, to uint64) error {
	var recs []historydb.KeyedEntry
	for n := uint64(0); n < to; n++ {
		b, err := blocks.GetByNumber(n)
		if err != nil {
			return err
		}
		recs = recs[:0]
		for i := range b.Envelopes {
			if i < len(b.TxValidation) && b.TxValidation[i] != blockstore.TxValid {
				continue
			}
			if err := rwset.ScanWrites(b.Envelopes[i].RWSet, func(key, _ []byte, isDelete bool) bool {
				recs = append(recs, historydb.KeyedEntry{Key: string(key),
					Entry: historydb.Entry{BlockNum: n, TxNum: uint64(i), IsDelete: isDelete}})
				return true
			}); err != nil {
				return fmt.Errorf("recovery: index history of block %d: %w", n, err)
			}
		}
		history.RecordBatch(recs)
	}
	return nil
}
