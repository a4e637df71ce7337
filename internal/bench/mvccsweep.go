package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// This file holds the MVCC contention sweep: parallel conflict-graph
// commit throughput as a function of how hard the block's transactions
// fight over a small pool of hot keys. 0% overlap is the embarrassingly
// parallel case (one wavefront per block); 100% means every transaction
// read-modify-writes a hot key, degenerating toward the sequential walk.
// Per-operation costs are charged through a device.Executor, so rates are
// in modeled hardware time; signatures are real ECDSA P-256 and every
// parallel run is checked for verdict-and-state equivalence against the
// sequential one before its timing is reported.

// mvccSweepConfig parameterizes the contention sweep.
type mvccSweepConfig struct {
	// Overlaps are the percentages of transactions per block that contend
	// on the hot-key pool (the x-axis).
	Overlaps []int
	// BlockSize is transactions per block.
	BlockSize int
	// Blocks is the stream length per measurement.
	Blocks int
	// MVCCWorkers sizes the parallel conflict-graph pool; the sequential
	// baseline is always MVCCWorkers=1.
	MVCCWorkers int
	// HotKeys is the size of each block's hot-key pool. Smaller pools mean
	// deeper writer chains at a given overlap.
	HotKeys int
	// Profile models the committing peer; Scale compresses modeled time.
	Profile device.Profile
	Scale   float64
	Seed    int64
}

// mvccSweepConfigFor returns the figure-quality sweep, or the reduced one.
func mvccSweepConfigFor(quick bool) mvccSweepConfig {
	cfg := mvccSweepConfig{
		Overlaps:    []int{0, 25, 50, 75, 100},
		BlockSize:   100,
		Blocks:      10,
		MVCCWorkers: 4,
		HotKeys:     4,
		Profile:     device.XeonE51603,
		Scale:       0.5,
		Seed:        1,
	}
	if quick {
		cfg.Overlaps = []int{0, 50, 100}
		cfg.BlockSize = 24
		cfg.Blocks = 3
		cfg.Scale = 0.05
	}
	return cfg
}

// MVCCSweepRow is one measured overlap point.
type MVCCSweepRow struct {
	OverlapPct int `json:"overlapPct"`
	// SequentialTps is the pipeline with MVCCWorkers=1.
	SequentialTps float64 `json:"sequentialTxPerSec"`
	// ParallelTps is the pipeline with the configured MVCC pool.
	ParallelTps float64 `json:"parallelTxPerSec"`
	Speedup     float64 `json:"speedup"`
	// AvgWaveWidth is the mean conflict-graph wavefront width observed by
	// the parallel run (block size / avg width ~ waves per block).
	AvgWaveWidth float64 `json:"avgWaveWidth"`
	// ValidPct is the share of transactions that committed TxValid — the
	// rest lost MVCC on a hot key, identically in both runs.
	ValidPct float64 `json:"validPct"`
}

// MVCCSweepResult is the sweep's report.
type MVCCSweepResult struct {
	Name        string         `json:"name"`
	Description string         `json:"description"`
	MVCCWorkers int            `json:"mvccWorkers"`
	Rows        []MVCCSweepRow `json:"rows"`
}

// Format renders the sweep table.
func (r MVCCSweepResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n%s\n", r.Name, r.Description)
	fmt.Fprintf(&sb, "%-10s %16s %16s %10s %10s %8s\n",
		"overlap%", "mvcc=1(tx/s)", fmt.Sprintf("mvcc=%d(tx/s)", r.MVCCWorkers),
		"speedup", "avg-wave", "valid%")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10d %16.0f %16.0f %9.2fx %10.1f %7.1f%%\n",
			row.OverlapPct, row.SequentialTps, row.ParallelTps, row.Speedup,
			row.AvgWaveWidth, row.ValidPct)
	}
	return sb.String()
}

// buildContendedStream builds `blocks` chained blocks of blockSize signed
// transactions where overlapPct percent read-modify-write one of hotKeys
// per-block hot keys (fresh every block, so the first claimant of each key
// commits and later claimants lose MVCC — deterministically, in both
// engines) and the rest write unique cold keys.
func (f *commitFixture) buildContendedStream(blocks, blockSize, overlapPct, hotKeys int) ([]*blockstore.Block, error) {
	out := make([]*blockstore.Block, 0, blocks)
	var prev []byte
	tx := 0
	hotPerBlock := blockSize * overlapPct / 100
	for bn := 0; bn < blocks; bn++ {
		envs := make([]blockstore.Envelope, blockSize)
		for i := range envs {
			rws := &rwset.ReadWriteSet{}
			if i < hotPerBlock {
				key := fmt.Sprintf("hot-%04d-%d", bn, i%hotKeys)
				rws.Reads = []rwset.Read{{Key: key, Version: nil}}
				rws.Writes = []rwset.Write{{Key: key, Value: []byte(fmt.Sprintf("w%07d", tx))}}
			} else {
				key := fmt.Sprintf("cold-%07d", tx)
				rws.Writes = []rwset.Write{{Key: key, Value: []byte(fmt.Sprintf("v%07d", tx))}}
			}
			env, err := f.envelope(fmt.Sprintf("tx-%07d", tx), rws)
			if err != nil {
				return nil, err
			}
			envs[i] = env
			tx++
		}
		b, err := blockstore.NewBlock(uint64(bn), prev, envs)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		prev = b.Header.Hash()
	}
	return out, nil
}

// sweepPass is one engine pass over a contended stream: elapsed wall time,
// the state fingerprint and validation codes for equivalence checking, the
// valid-transaction count, and the average conflict-graph wavefront width
// (0 when the sequential walk never builds a graph).
type sweepPass struct {
	elapsed time.Duration
	fp      string
	codes   [][]blockstore.ValidationCode
	valid   int
	avgWave float64
}

// sweepRun commits the stream through the pipeline with the given MVCC pool.
func sweepRun(f *commitFixture, sc mvccSweepConfig, stream []*blockstore.Block, mvccWorkers int) (*sweepPass, error) {
	exec := device.NewExecutor(sc.Profile, device.RealClock{ScaleFactor: sc.Scale}, sc.Seed)
	state := statedb.New()
	reg := metrics.NewRegistry()
	cfg := committer.Config{
		State:       state,
		History:     historydb.New(),
		Blocks:      blockstore.NewStore(),
		Verifier:    f.verifier(exec),
		Workers:     sc.Profile.Cores,
		MVCCWorkers: mvccWorkers,
		Exec:        exec,
		Metrics:     reg,
	}
	eng := committer.New(cfg)
	start := time.Now()
	for _, b := range stream {
		if !eng.Submit(b) {
			eng.Close()
			return nil, fmt.Errorf("bench: sweep block %d rejected", b.Header.Number)
		}
	}
	eng.Sync()
	pass := &sweepPass{elapsed: time.Since(start), codes: make([][]blockstore.ValidationCode, len(stream))}
	eng.Close()

	for n := range stream {
		b, err := cfg.Blocks.GetByNumber(uint64(n))
		if err != nil {
			return nil, err
		}
		pass.codes[n] = b.TxValidation
		for _, c := range b.TxValidation {
			if c == blockstore.TxValid {
				pass.valid++
			}
		}
	}
	// Wave widths ride in nanosecond slots (1 tx == 1ns).
	if s := reg.Histogram(metrics.CommitMVCCWaveWidth).Summary(); s.Count > 0 {
		pass.avgWave = float64(s.Sum) / float64(s.Count)
	}
	pass.fp = committer.StateFingerprint(state)
	return pass, nil
}

// sameVerdicts confirms the parallel pass reproduced the sequential one
// exactly: same final state hash, same validation code for every tx.
func sameVerdicts(seq, par *sweepPass) error {
	if seq.fp != par.fp {
		return fmt.Errorf("state fingerprint mismatch: sequential=%s parallel=%s", seq.fp, par.fp)
	}
	for n := range seq.codes {
		if !slices.Equal(seq.codes[n], par.codes[n]) {
			return fmt.Errorf("block %d verdicts: sequential=%v parallel=%v", n, seq.codes[n], par.codes[n])
		}
	}
	return nil
}

// runMVCCSweep measures parallel-MVCC commit throughput across contention
// levels, checking sequential/parallel equivalence at every point.
func runMVCCSweep(quick bool) (Report, error) {
	cfg := mvccSweepConfigFor(quick)
	res := MVCCSweepResult{
		Name:        "Parallel MVCC: throughput vs intra-block key contention",
		MVCCWorkers: cfg.MVCCWorkers,
		Description: fmt.Sprintf(
			"%d blocks x %d tx, %d-key hot pool per block, real ECDSA P-256; modeled peer: %s (%d cores); rates in modeled tx/s",
			cfg.Blocks, cfg.BlockSize, cfg.HotKeys, cfg.Profile.Name, cfg.Profile.Cores),
	}
	f, err := newCommitFixture()
	if err != nil {
		return nil, err
	}
	totalTx := float64(cfg.Blocks * cfg.BlockSize)
	for _, overlap := range cfg.Overlaps {
		stream, err := f.buildContendedStream(cfg.Blocks, cfg.BlockSize, overlap, cfg.HotKeys)
		if err != nil {
			return nil, err
		}
		seq, err := sweepRun(f, cfg, stream, 1)
		if err != nil {
			return nil, err
		}
		par, err := sweepRun(f, cfg, stream, cfg.MVCCWorkers)
		if err != nil {
			return nil, err
		}
		if err := sameVerdicts(seq, par); err != nil {
			return nil, fmt.Errorf("bench: sweep overlap %d%%: %w", overlap, err)
		}
		res.Rows = append(res.Rows, MVCCSweepRow{
			OverlapPct:    overlap,
			SequentialTps: totalTx / seq.elapsed.Seconds() * cfg.Scale,
			ParallelTps:   totalTx / par.elapsed.Seconds() * cfg.Scale,
			Speedup:       float64(seq.elapsed) / float64(par.elapsed),
			AvgWaveWidth:  par.avgWave,
			ValidPct:      float64(par.valid) / totalTx * 100,
		})
	}
	return res, nil
}
