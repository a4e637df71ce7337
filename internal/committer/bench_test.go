package committer

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// benchStream builds `blocks` chained valid blocks of `size` signed txs.
func benchStream(b *testing.B, f *txFactory, blocks, size int) []*blockstore.Block {
	b.Helper()
	out := make([]*blockstore.Block, 0, blocks)
	var prev []byte
	tx := 0
	for n := 0; n < blocks; n++ {
		envs := make([]blockstore.Envelope, size)
		for i := range envs {
			rws := &rwset.ReadWriteSet{Writes: []rwset.Write{
				{Key: fmt.Sprintf("k-%06d", tx), Value: []byte("value")},
			}}
			envs[i] = f.envelope(fmt.Sprintf("btx-%06d", tx), rws, nil)
			tx++
		}
		blk := blockstore.NewBlock(uint64(n), prev, envs)
		out = append(out, blk)
		prev = blk.Header.Hash()
	}
	return out
}

func runCommit(b *testing.B, workers, blocks, size int, pipelined, instrumented bool) {
	b.Helper()
	f := newTxFactory(b)
	stream := benchStream(b, f, blocks, size)
	pass := func() {
		l := newLedger()
		cfg := l.config(f, workers)
		if instrumented {
			// Fresh per pass, like the ledger: the stream's transaction IDs
			// repeat, and a recorder that already holds them stops recording.
			cfg.Metrics, cfg.Tracer, cfg.Name = metrics.NewRegistry(), trace.NewRecorder(), "bench-peer"
		}
		var eng Committer
		if pipelined {
			eng = New(cfg)
		} else {
			eng = NewSerial(cfg)
		}
		for _, blk := range stream {
			if !eng.Submit(blk) {
				b.Fatal("block rejected")
			}
		}
		eng.Sync()
		eng.Close()
	}
	// The factory's MSP outlives the passes; an untimed first pass warms
	// both its caches (identities interned, signatures remembered), so every
	// timed pass of every variant runs warm and the variants compare
	// like for like.
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	txs := float64(blocks*size) * float64(b.N)
	b.ReportMetric(txs/b.Elapsed().Seconds(), "tx/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/txs, "allocs/tx")
}

// BenchmarkCommitSerial is the single-goroutine baseline (8 blocks x 64 txs
// per iteration); BenchmarkCommitPipelined4 runs the same stream through
// the three-stage pipeline with 4 pre-validation workers, and the
// Instrumented variant adds a live metrics registry and trace recorder:
// the gap between those two is the observability overhead (budget: 5%).
// BenchmarkCommitPipelined4Blocks10 commits 40 blocks x 10 txs, the block
// size the repository benchmark's catchup workload replays.
func BenchmarkCommitSerial(b *testing.B)                 { runCommit(b, 1, 8, 64, false, false) }
func BenchmarkCommitPipelined4(b *testing.B)             { runCommit(b, 4, 8, 64, true, false) }
func BenchmarkCommitPipelined4Instrumented(b *testing.B) { runCommit(b, 4, 8, 64, true, true) }
func BenchmarkCommitPipelined4Blocks10(b *testing.B)     { runCommit(b, 4, 40, 10, true, false) }
