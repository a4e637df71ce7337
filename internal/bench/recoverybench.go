package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/recovery"
	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// This file holds the recovery experiment: how fast a durable peer comes
// back after a crash, checkpoint + tail-replay versus replaying the whole
// block file from genesis, across ledger sizes. Replay never re-verifies
// signatures (validation flags are settled in the stored blocks), so the
// streams here carry none and the measurement isolates exactly the
// recovery path: block-file load, checkpoint restore, and the MVCC replay
// of the tail. Both paths land on the same state fingerprint, which each
// run asserts before reporting a time.

// RecoveryBenchConfig parameterizes the recovery experiment. The workload
// models the paper's: a bounded population of provenance records whose
// versions accumulate (HyperProv's GetKeyHistory exists because records are
// updated, not endlessly minted), indexed by the same four fields the
// provenance chaincode declares.
type RecoveryBenchConfig struct {
	// LedgerSizes are the chain lengths (in blocks) on the x-axis.
	LedgerSizes []int
	// TxPerBlock is the number of transactions per block.
	TxPerBlock int
	// WritesPerTx is the number of JSON document writes per transaction.
	WritesPerTx int
	// Records is the size of the record population being updated.
	Records int
	// CheckpointEvery is the block interval between durable checkpoints.
	CheckpointEvery int
	// Runs is how many times each cold open is measured (median reported).
	Runs int
}

// DefaultRecoveryBench returns the figure-quality configuration.
func DefaultRecoveryBench() RecoveryBenchConfig {
	return RecoveryBenchConfig{
		LedgerSizes:     []int{200, 800, 3200},
		TxPerBlock:      10,
		WritesPerTx:     2,
		Records:         4000,
		CheckpointEvery: 16,
		Runs:            3,
	}
}

// QuickRecoveryBench returns a reduced run for smoke tests.
func QuickRecoveryBench() RecoveryBenchConfig {
	return RecoveryBenchConfig{
		LedgerSizes:     []int{40, 120},
		TxPerBlock:      5,
		WritesPerTx:     2,
		Records:         500,
		CheckpointEvery: 8,
		Runs:            1,
	}
}

// recoveryIndexes mirrors the provenance chaincode's index declarations.
func recoveryIndexes() []richquery.IndexDef {
	return []richquery.IndexDef{
		{Name: "by-owner", Field: "owner"},
		{Name: "by-creator", Field: "creator"},
		{Name: "by-type", Field: "meta.type"},
		{Name: "by-time", Field: "ts"},
	}
}

// RecoveryBenchRow is one measured ledger size. LedgerLoadMs is the block
// file load — byte-identical work whichever strategy follows, reported so
// the table hides nothing. CheckpointMs and GenesisMs are the soft-state
// rebuild times the two strategies actually differ on (checkpoint restore +
// tail replay vs full replay); Speedup is their ratio, TotalSpeedup the
// ratio of whole cold opens including the shared load.
type RecoveryBenchRow struct {
	Blocks         int     `json:"blocks"`
	Transactions   int     `json:"transactions"`
	StateKeys      int     `json:"stateKeys"`
	HistoryEntries int     `json:"historyEntries"`
	TailBlocks     int     `json:"tailBlocks"`
	CheckpointAge  uint64  `json:"checkpointHeight"`
	LedgerLoadMs   float64 `json:"ledgerLoadMs"`
	CheckpointMs   float64 `json:"checkpointRecoveryMs"`
	GenesisMs      float64 `json:"genesisReplayMs"`
	Speedup        float64 `json:"speedup"`
	TotalCkptMs    float64 `json:"totalCheckpointOpenMs"`
	TotalGenesisMs float64 `json:"totalGenesisOpenMs"`
	TotalSpeedup   float64 `json:"totalSpeedup"`
}

// RecoveryBenchResult is the regenerated comparison table.
type RecoveryBenchResult struct {
	Name        string             `json:"name"`
	Description string             `json:"description"`
	Rows        []RecoveryBenchRow `json:"rows"`
}

// Format renders the comparison table.
func (r RecoveryBenchResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n%s\n", r.Name, r.Description)
	fmt.Fprintf(&sb, "%-8s %8s %9s %9s %5s %9s %14s %13s %8s %11s\n",
		"blocks", "txs", "statekeys", "history", "tail", "load(ms)",
		"ckpt+tail(ms)", "genesis(ms)", "speedup", "totspeedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-8d %8d %9d %9d %5d %9.1f %14.1f %13.1f %7.1fx %10.1fx\n",
			row.Blocks, row.Transactions, row.StateKeys, row.HistoryEntries,
			row.TailBlocks, row.LedgerLoadMs, row.CheckpointMs, row.GenesisMs,
			row.Speedup, row.TotalSpeedup)
	}
	return sb.String()
}

// WriteJSON writes the result to path (the BENCH_recovery.json artifact the
// CI nightly benchmark job uploads).
func (r RecoveryBenchResult) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal recovery result: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// recoveryChannel is the channel whose ledger the experiment seeds and reopens.
const recoveryChannel = "bench"

// seedRecoveryLedger populates dataDir with a committed chain of n blocks,
// taking checkpoints on the configured interval, and crashes without a
// final checkpoint — so every cold open below finds a realistic tail to
// replay. Returns the reference state fingerprint and total key count.
func seedRecoveryLedger(cfg RecoveryBenchConfig, dataDir string, n int) (string, int, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return "", 0, err
	}
	blocks, err := blockstore.OpenFileStoreWithPolicy(
		recovery.BlockFilePath(dataDir, recoveryChannel), blockstore.SyncOnClose)
	if err != nil {
		return "", 0, err
	}
	state, err := statedb.NewIndexed(recoveryIndexes()...)
	if err != nil {
		blocks.Close()
		return "", 0, err
	}
	history := historydb.New()
	mgr := recovery.NewManager(dataDir, recoveryChannel, recovery.DefaultKeep, state, history, blocks)

	tx := 0
	write := 0
	var prev []byte
	for bn := 0; bn < n; bn++ {
		envs := make([]blockstore.Envelope, cfg.TxPerBlock)
		for i := range envs {
			rws := &rwset.ReadWriteSet{}
			for w := 0; w < cfg.WritesPerTx; w++ {
				// Walk the bounded record population round-robin so every
				// record accumulates versions as the ledger grows.
				key := fmt.Sprintf("record-%06d", write%cfg.Records)
				doc, err := json.Marshal(map[string]any{
					"key":      key,
					"version":  write / cfg.Records,
					"checksum": fmt.Sprintf("sha256:%064d", write),
					"owner":    fmt.Sprintf("x509::CN=device-%02d,O=Org%d", write%50, write%4+1),
					"creator":  fmt.Sprintf("device-%02d", write%50),
					"meta":     map[string]string{"type": []string{"raw", "aggregate", "model"}[write%3], "site": fmt.Sprintf("site-%d", write%8)},
					"location": fmt.Sprintf("sshfs://store-%d/items/%06d", write%4, write%cfg.Records),
					"ts":       1700000000000 + int64(write),
				})
				if err != nil {
					blocks.Close()
					return "", 0, err
				}
				rws.Writes = append(rws.Writes, rwset.Write{Key: key, Value: doc})
				write++
			}
			raw, err := rws.Marshal()
			if err != nil {
				blocks.Close()
				return "", 0, err
			}
			envs[i] = blockstore.Envelope{
				TxID: fmt.Sprintf("tx-%08d", tx), ChannelID: recoveryChannel, Chaincode: "bench",
				Timestamp: time.Unix(1700000000, 0).UTC(), RWSet: raw,
			}
			tx++
		}
		b, err := blockstore.NewBlock(uint64(bn), prev, envs)
		if err != nil {
			blocks.Close()
			return "", 0, err
		}
		b.TxValidation = make([]blockstore.ValidationCode, len(envs))
		for i := range b.TxValidation {
			b.TxValidation[i] = blockstore.TxValid
		}
		prev = b.Header.Hash()
		if err := blocks.Append(b); err != nil {
			blocks.Close()
			return "", 0, err
		}
		if err := committer.Replay(state, history, []*blockstore.Block{b}); err != nil {
			blocks.Close()
			return "", 0, err
		}
		if cfg.CheckpointEvery > 0 && (bn+1)%cfg.CheckpointEvery == 0 && bn+1 < n {
			mgr.OnCheckpoint(committer.Capture{
				Height:       uint64(bn + 1),
				StateHeight:  state.Height(),
				State:        state.Snapshot(),
				IndexEntries: state.IndexEntries(),
			})
			if err := mgr.Err(); err != nil {
				blocks.Close()
				return "", 0, err
			}
		}
	}
	fp := committer.StateFingerprint(state)
	keys := state.Len()
	// Crash, not Close: no final checkpoint, so a tail survives to replay.
	if err := blocks.Sync(); err != nil {
		blocks.Close()
		return "", 0, err
	}
	return fp, keys, blocks.CloseNoFlush()
}

// openTiming is one cold open's measurements — only the numbers, so the
// bench never keeps a recovered ledger (hundreds of MB) alive across runs
// and inflates later runs' garbage collection.
type openTiming struct {
	load, restore, replay time.Duration
	replayed              int
	checkpointHeight      uint64
}

func (ot openTiming) softMs() float64 {
	return float64((ot.restore + ot.replay).Microseconds()) / 1000
}

func (ot openTiming) totalMs() float64 {
	return float64((ot.load + ot.restore + ot.replay).Microseconds()) / 1000
}

// timeOpen runs one cold open, verifies it recovered the reference
// fingerprint, and returns the phase timings. The garbage left by the
// previous open is collected first so one run's allocation debt is not
// billed to the next run's timings.
func timeOpen(dataDir, wantFP string, fromGenesis bool) (openTiming, error) {
	runtime.GC()
	opened, err := recovery.Open(dataDir, recovery.Options{Channel: recoveryChannel, FromGenesis: fromGenesis})
	if err != nil {
		return openTiming{}, err
	}
	defer opened.Blocks.Close()
	if fp := committer.StateFingerprint(opened.State); fp != wantFP {
		return openTiming{}, fmt.Errorf("bench: recovered fingerprint %s, want %s", fp, wantFP)
	}
	return openTiming{
		load:             opened.LoadDuration,
		restore:          opened.RestoreDuration,
		replay:           opened.ReplayDuration,
		replayed:         opened.Replayed,
		checkpointHeight: opened.CheckpointHeight,
	}, nil
}

// medianBy returns the run with the median soft-state rebuild time.
func medianBy(xs []openTiming) openTiming {
	sorted := make([]openTiming, len(xs))
	copy(sorted, xs)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].softMs() < sorted[j-1].softMs(); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

// RunRecoveryBench runs the checkpoint-vs-genesis recovery comparison.
func RunRecoveryBench(cfg RecoveryBenchConfig) (RecoveryBenchResult, error) {
	if cfg.Runs < 1 {
		cfg.Runs = 1
	}
	res := RecoveryBenchResult{
		Name: "Crash recovery: checkpoint + tail replay vs replay from genesis",
		Description: fmt.Sprintf(
			"%d tx/block, %d writes/tx over %d records, 4 secondary indexes, checkpoint every %d blocks; cold open to verified state fingerprint, median of %d runs; load(ms) is the shared block-file load, speedup compares the soft-state rebuild, totspeedup whole cold opens",
			cfg.TxPerBlock, cfg.WritesPerTx, cfg.Records, cfg.CheckpointEvery, cfg.Runs),
	}
	root, err := os.MkdirTemp("", "hyperprov-recovery-bench-*")
	if err != nil {
		return RecoveryBenchResult{}, err
	}
	defer os.RemoveAll(root)

	for idx, size := range cfg.LedgerSizes {
		dataDir := fmt.Sprintf("%s/ledger-%d", root, idx)
		wantFP, keys, err := seedRecoveryLedger(cfg, dataDir, size)
		if err != nil {
			return RecoveryBenchResult{}, fmt.Errorf("seed %d blocks: %w", size, err)
		}
		var ckptRuns, genesisRuns []openTiming
		for r := 0; r < cfg.Runs; r++ {
			ot, err := timeOpen(dataDir, wantFP, false)
			if err != nil {
				return RecoveryBenchResult{}, err
			}
			ckptRuns = append(ckptRuns, ot)
			g, err := timeOpen(dataDir, wantFP, true)
			if err != nil {
				return RecoveryBenchResult{}, err
			}
			genesisRuns = append(genesisRuns, g)
		}
		ck := medianBy(ckptRuns)
		gen := medianBy(genesisRuns)
		row := RecoveryBenchRow{
			Blocks:         size,
			Transactions:   size * cfg.TxPerBlock,
			StateKeys:      keys,
			HistoryEntries: size * cfg.TxPerBlock * cfg.WritesPerTx,
			TailBlocks:     ck.replayed,
			CheckpointAge:  ck.checkpointHeight,
			LedgerLoadMs:   float64(ck.load.Microseconds()) / 1000,
			CheckpointMs:   ck.softMs(),
			GenesisMs:      gen.softMs(),
			TotalCkptMs:    ck.totalMs(),
			TotalGenesisMs: gen.totalMs(),
		}
		if row.CheckpointMs > 0 {
			row.Speedup = row.GenesisMs / row.CheckpointMs
		}
		if row.TotalCkptMs > 0 {
			row.TotalSpeedup = row.TotalGenesisMs / row.TotalCkptMs
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
