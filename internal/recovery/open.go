package recovery

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/historydb"
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

// Options tunes Open.
type Options struct {
	// Sync is the block file's fsync policy (default SyncOnClose).
	Sync blockstore.SyncPolicy
	// Channel names the channel of the data directory to recover
	// (blocks-<ch>.hpb, checkpoints/<ch>/). Required.
	Channel string
}

// Opened is a peer's recovered ledger: durable block file plus rebuilt
// soft state, mutually consistent at Blocks.Height().
type Opened struct {
	// State is the recovered world state (indexed flavour, rich queries
	// included), exactly at the block file's height.
	State *statedb.Store
	// History is the recovered per-key write history.
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

// Open recovers a peer's ledger from dataDir (created if absent):
//
//  1. open the block file, discarding a crash-torn tail and refusing
//     mid-file corruption;
//  2. restore the newest valid checkpoint whose height the block file
//     confirms (skipping damaged or too-new candidates);
//  3. replay only the block tail after the checkpoint through the
//     committer's replay path, rebuilding state, history, and the
//     rich-query secondary indexes to the exact pre-crash fingerprint.
//
// With no usable checkpoint the replay starts from genesis — slower, never
// wrong.
func Open(dataDir string, opts Options) (*Opened, error) {
	if opts.Channel == "" {
		return nil, errors.New("recovery: open without a channel")
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: mkdir %s: %w", dataDir, err)
	}
	blocks, err := blockstore.OpenFileStoreWithPolicy(BlockFilePath(dataDir, opts.Channel), opts.Sync)
	if err != nil {
		return nil, err
	}
	state := statedb.New()
	history := historydb.New()
	out := &Opened{State: state, History: history, Blocks: blocks}

	from := uint64(0)
	ck, err := LoadLatest(CheckpointDir(dataDir, opts.Channel), blocks.Height())
	switch {
	case err == nil:
		if err := state.DefineIndexes(ck.Indexes); err != nil {
			blocks.Close()
			return nil, err
		}
		// The checkpoint was decoded moments ago and is dropped after
		// this block: hand its maps over instead of deep-copying them.
		state.RestoreWithIndexEntries(ck.State, ck.StateHeight, ck.IndexEntries)
		history.RestoreOwned(ck.History)
		from = ck.Height
		out.CheckpointHeight = ck.Height
	case errors.Is(err, ErrNoCheckpoint):
		// Fresh directory or no trustworthy checkpoint: full replay.
	default:
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
