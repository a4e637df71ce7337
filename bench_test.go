// Package hyperprov_test holds the top-level benchmark harness: one
// testing.B benchmark per figure of the paper's evaluation (Figs 1–3) plus
// the ablations (README "Paper figures & ablations"). Each benchmark drives
// the same code path as the corresponding hyperprov-bench experiment;
// figure-quality tables come from `go run ./cmd/hyperprov-bench`.
//
// The figure benchmarks run the modeled hardware on a 10x-compressed
// clock so `go test -bench=.` stays fast; ns/op is therefore modeled
// time / 10 plus host overhead.
package hyperprov_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/bench"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/energy"
	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// benchScale compresses modeled time for testing.B runs.
const benchScale = 0.1

// benchNetwork assembles a deployed network plus one HyperProv client for
// per-op benchmarks (single-tx batches so ns/op reflects one transaction).
func benchNetwork(b *testing.B, cfg fabric.Config) (*core.Client, func()) {
	b.Helper()
	cfg.Clock = device.RealClock{ScaleFactor: benchScale}
	cfg.Batch = orderer.BatchConfig{
		MaxMessageCount: 1, BatchTimeout: time.Second, PreferredMaxBytes: 64 << 20,
	}
	n, err := fabric.NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := n.DeployChaincode(provenance.ChaincodeName,
		func() shim.Chaincode { return provenance.New() }); err != nil {
		n.Stop()
		b.Fatal(err)
	}
	gw, err := n.NewGateway("bench")
	if err != nil {
		n.Stop()
		b.Fatal(err)
	}
	client, err := core.New(gw, core.WithStore(offchain.NewMemStore()))
	if err != nil {
		n.Stop()
		b.Fatal(err)
	}
	return client, n.Stop
}

var benchKeySeq atomic.Int64

func benchKey() string {
	return fmt.Sprintf("bench-%d", benchKeySeq.Add(1))
}

// storeDataSizes are the representative payload points benchmarked from
// the Figs 1–2 sweeps.
var storeDataSizes = []int{4 << 10, 1 << 20}

// BenchmarkFig1DesktopStoreData benchmarks the Fig-1 operation — StoreData
// (off-chain upload + checksum + on-chain provenance record) on the
// desktop network — at representative payload sizes.
func BenchmarkFig1DesktopStoreData(b *testing.B) {
	for _, size := range storeDataSizes {
		b.Run(bench.FormatSize(size), func(b *testing.B) {
			client, stop := benchNetwork(b, fabric.DesktopConfig())
			defer stop()
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.StoreData(benchKey(), payload, core.PostOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2RPiStoreData benchmarks the Fig-2 operation: the same
// StoreData path on the Raspberry Pi 3B+ network.
func BenchmarkFig2RPiStoreData(b *testing.B) {
	for _, size := range storeDataSizes {
		b.Run(bench.FormatSize(size), func(b *testing.B) {
			client, stop := benchNetwork(b, fabric.RPiConfig())
			defer stop()
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.StoreData(benchKey(), payload, core.PostOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3EnergyIntegration benchmarks the Fig-3 computation: metering
// a full idle -> peak phase schedule on the RPi power model (one iteration
// = one complete figure regeneration).
func BenchmarkFig3EnergyIntegration(b *testing.B) {
	model := energy.RPiPowerModel()
	phases := []energy.Phase{
		{Name: "idle", Duration: 10 * time.Minute, Util: 0, HLFRunning: false},
		{Name: "idle+HLF", Duration: 10 * time.Minute, Util: 0, HLFRunning: true},
		{Name: "load-50", Duration: 10 * time.Minute, Util: 0.5, HLFRunning: true},
		{Name: "peak", Duration: 10 * time.Minute, Util: 1, HLFRunning: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := energy.RunPhases(model, phases, time.Second, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblABatchSize benchmarks ordered-commit throughput at two block
// cutting settings (Abl A): per-tx blocks vs 10-tx blocks.
func BenchmarkAblABatchSize(b *testing.B) {
	for _, batchSize := range []int{1, 10} {
		b.Run(fmt.Sprintf("batch=%d", batchSize), func(b *testing.B) {
			cfg := fabric.DesktopConfig()
			cfg.Clock = device.RealClock{ScaleFactor: benchScale}
			cfg.Batch = orderer.BatchConfig{
				MaxMessageCount: batchSize, BatchTimeout: 100 * time.Millisecond,
				PreferredMaxBytes: 64 << 20,
			}
			n, err := fabric.NewNetwork(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer n.Stop()
			if err := n.DeployChaincode(provenance.ChaincodeName,
				func() shim.Chaincode { return provenance.New() }); err != nil {
				b.Fatal(err)
			}
			gw, err := n.NewGateway("bench")
			if err != nil {
				b.Fatal(err)
			}
			client, err := core.New(gw, core.WithStore(offchain.NewMemStore()))
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 16<<10)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := client.StoreData(benchKey(), payload, core.PostOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkAblBOnchainPayload benchmarks the counterfactual on-chain
// payload path (Abl B): the whole data item rides inside the transaction.
func BenchmarkAblBOnchainPayload(b *testing.B) {
	client, stop := benchNetwork(b, fabric.DesktopConfig())
	defer stop()
	payload := make([]byte, 16<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meta := map[string]string{"data": string(payload)}
		_, err := client.Post(benchKey(), offchain.Checksum(payload), core.PostOptions{Meta: meta})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblCRaftOrdering benchmarks submit-to-commit on a 3-node Raft
// ordering service (Abl C's steady-state phase).
func BenchmarkAblCRaftOrdering(b *testing.B) {
	cfg := fabric.DesktopConfig()
	cfg.Consensus = fabric.ConsensusRaft
	cfg.RaftNodes = 3
	client, stop := benchNetwork(b, cfg)
	defer stop()
	payload := make([]byte, 4<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.StoreData(benchKey(), payload, core.PostOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
