package committer

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/rwset"
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
		blk, err := blockstore.NewBlock(uint64(n), prev, envs)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, blk)
		prev = blk.Header.Hash()
	}
	return out
}

func runCommit(b *testing.B, workers int, pipelined bool) {
	b.Helper()
	f := newTxFactory(b)
	stream := benchStream(b, f, 8, 64)
	// The factory's MSP outlives the iterations, so from the second one on
	// both its caches are warm: identities interned, signatures remembered.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := newLedger()
		var eng Committer
		if pipelined {
			eng = New(l.config(f, workers))
		} else {
			eng = NewSerial(l.config(f, workers))
		}
		for _, blk := range stream {
			if !eng.Submit(blk) {
				b.Fatal("block rejected")
			}
		}
		eng.Sync()
		eng.Close()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	txs := float64(8*64) * float64(b.N)
	b.ReportMetric(txs/b.Elapsed().Seconds(), "tx/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/txs, "allocs/tx")
}

// BenchmarkCommitSerial is the single-goroutine baseline (8 blocks x 64 txs
// per iteration); BenchmarkCommitPipelined4 runs the same stream through
// the three-stage pipeline with 4 pre-validation workers.
func BenchmarkCommitSerial(b *testing.B)     { runCommit(b, 1, false) }
func BenchmarkCommitPipelined4(b *testing.B) { runCommit(b, 4, true) }
