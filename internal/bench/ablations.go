package bench

import (
	"fmt"
	"time"

	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/orderer"
)

// This file implements the ablation experiments (README "Paper figures &
// ablations"): they probe the design choices the paper makes (block cutting
// parameters, off-chain vs on-chain payloads, ordering-service resilience)
// rather than reproducing a specific figure.

// batchConfig parameterizes Abl A.
type batchConfig struct {
	// BatchSizes are the MaxMessageCount values to sweep.
	BatchSizes []int
	// PayloadSize is the fixed data-item size.
	PayloadSize  int
	Workers      int
	WallPerPoint time.Duration
	Scale        float64
	Seed         int64
}

// batchConfigFor returns the standard Abl A configuration, or the reduced one.
func batchConfigFor(quick bool) batchConfig {
	cfg := batchConfig{
		BatchSizes:   []int{1, 10, 50, 100},
		PayloadSize:  64 << 10,
		Workers:      16,
		WallPerPoint: 3 * time.Second,
		Scale:        1.0,
		Seed:         1,
	}
	if quick {
		cfg.BatchSizes = []int{1, 20}
		cfg.WallPerPoint = quickWall
	}
	return cfg
}

// runBatchAblation sweeps the orderer's MaxMessageCount at a fixed payload
// size on the desktop network. Larger batches amortize ordering and commit
// overhead (higher throughput) at the cost of queueing latency.
func runBatchAblation(quick bool) (Report, error) {
	cfg := batchConfigFor(quick)
	res := Result{
		Name:        "Abl A: orderer batch-size sweep",
		Description: fmt.Sprintf("desktop network, %s payloads, MaxMessageCount swept", FormatSize(cfg.PayloadSize)),
	}
	for i, bs := range cfg.BatchSizes {
		netCfg := fabric.DesktopConfig()
		netCfg.Batch = orderer.BatchConfig{
			MaxMessageCount:   bs,
			BatchTimeout:      2 * time.Second,
			PreferredMaxBytes: 64 << 20,
		}
		n, err := newNetwork(netCfg, cfg.Scale, cfg.Seed+int64(i)*211)
		if err != nil {
			return nil, err
		}
		clients, err := newClients(n, cfg.Workers, device.XeonE51603, cfg.Scale, cfg.Seed)
		if err != nil {
			n.Stop()
			return nil, err
		}
		payload := payloadFactory(cfg.Workers, cfg.PayloadSize, cfg.Seed)
		run := RunClosedLoop(cfg.Workers, cfg.WallPerPoint, func(w, it int) error {
			_, err := clients[w].StoreData(fmt.Sprintf("b%d-%d-%d", i, w, it), payload(w, it), core.PostOptions{})
			return err
		})
		n.Stop()
		res.Rows = append(res.Rows, Row{
			Label:      fmt.Sprintf("batch=%d", bs),
			Size:       bs,
			Throughput: run.ModeledThroughput(cfg.Scale),
			Latency:    run.Latency.Summarize().Scaled(cfg.Scale),
			Errors:     run.Errs,
		})
	}
	return res, nil
}

// onchainConfig parameterizes Abl B.
type onchainConfig struct {
	Sizes        []int
	Workers      int
	WallPerPoint time.Duration
	Scale        float64
	Seed         int64
}

// onchainConfigFor returns the standard Abl B configuration, or the reduced
// one.
func onchainConfigFor(quick bool) onchainConfig {
	cfg := onchainConfig{
		Sizes:        []int{1 << 10, 16 << 10, 128 << 10, 512 << 10},
		Workers:      16,
		WallPerPoint: 3 * time.Second,
		Scale:        1.0,
		Seed:         1,
	}
	if quick {
		cfg.Sizes = []int{1 << 10, 128 << 10}
		cfg.WallPerPoint = quickWall
	}
	return cfg
}

// OnchainResult is Abl B's pair of tables: the same payload sweep through
// the off-chain design and through the on-chain counterfactual.
type OnchainResult struct {
	OffChain Result
	OnChain  Result
}

// Format renders both tables, off-chain first.
func (r OnchainResult) Format() string {
	return r.OffChain.Format() + "\n" + r.OnChain.Format()
}

// runOnchainAblation compares HyperProv's pointer + off-chain design
// against storing the payload inside the transaction. The on-chain variant
// bloats envelopes, blocks, and every peer's ledger; the paper's design
// argument is that the off-chain path scales to large items.
func runOnchainAblation(quick bool) (Report, error) {
	cfg := onchainConfigFor(quick)
	off := Result{
		Name:        "Abl B: off-chain pointer (HyperProv design)",
		Description: "payload to off-chain store, checksum+pointer on-chain",
	}
	on := Result{
		Name:        "Abl B: full payload on-chain (counterfactual)",
		Description: "payload embedded in the transaction metadata",
	}
	for i, size := range cfg.Sizes {
		for variant := 0; variant < 2; variant++ {
			n, err := newNetwork(fabric.DesktopConfig(), cfg.Scale, cfg.Seed+int64(i)*307+int64(variant))
			if err != nil {
				return nil, err
			}
			clients, err := newClients(n, cfg.Workers, device.XeonE51603, cfg.Scale, cfg.Seed)
			if err != nil {
				n.Stop()
				return nil, err
			}
			payload := payloadFactory(cfg.Workers, size, cfg.Seed)
			var run RunResult
			if variant == 0 {
				run = RunClosedLoop(cfg.Workers, cfg.WallPerPoint, func(w, it int) error {
					_, err := clients[w].StoreData(fmt.Sprintf("off%d-%d-%d", i, w, it), payload(w, it), core.PostOptions{})
					return err
				})
			} else {
				run = RunClosedLoop(cfg.Workers, cfg.WallPerPoint, func(w, it int) error {
					data := payload(w, it)
					_, err := clients[w].Post(fmt.Sprintf("on%d-%d-%d", i, w, it),
						offchain.Checksum(data),
						core.PostOptions{Meta: encodePayloadMeta(data)})
					return err
				})
			}
			n.Stop()
			row := Row{
				Label:      FormatSize(size),
				Size:       size,
				Throughput: run.ModeledThroughput(cfg.Scale),
				Latency:    run.Latency.Summarize().Scaled(cfg.Scale),
				Errors:     run.Errs,
			}
			if variant == 0 {
				off.Rows = append(off.Rows, row)
			} else {
				on.Rows = append(on.Rows, row)
			}
		}
	}
	return OnchainResult{OffChain: off, OnChain: on}, nil
}

// raftConfig parameterizes Abl C.
type raftConfig struct {
	Workers      int
	PayloadSize  int
	WallPerPhase time.Duration
	Scale        float64
	Seed         int64
}

// raftConfigFor returns the standard Abl C configuration, or the reduced one.
func raftConfigFor(quick bool) raftConfig {
	cfg := raftConfig{
		Workers:      16,
		PayloadSize:  16 << 10,
		WallPerPhase: 2 * time.Second,
		Scale:        1.0,
		Seed:         1,
	}
	if quick {
		cfg.WallPerPhase = quickWall
	}
	return cfg
}

// runRaftAblation measures throughput with a 3-node Raft ordering service
// before and after crashing the leader mid-run; the resilience claim is
// that the network keeps committing after failover.
func runRaftAblation(quick bool) (Report, error) {
	cfg := raftConfigFor(quick)
	res := Result{
		Name:        "Abl C: raft ordering-service failover",
		Description: "desktop network, 3 raft orderers; leader killed between phases",
	}
	netCfg := fabric.DesktopConfig()
	netCfg.Consensus = fabric.ConsensusRaft
	n, err := newNetwork(netCfg, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer n.Stop()
	raftSvc, ok := n.Orderer().(*orderer.Raft)
	if !ok {
		return nil, fmt.Errorf("bench: orderer is %T, want raft", n.Orderer())
	}
	clients, err := newClients(n, cfg.Workers, device.XeonE51603, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	payload := payloadFactory(cfg.Workers, cfg.PayloadSize, cfg.Seed)

	phase := func(label string, idx int) Row {
		run := RunClosedLoop(cfg.Workers, cfg.WallPerPhase, func(w, it int) error {
			_, err := clients[w].StoreData(fmt.Sprintf("r%d-%d-%d", idx, w, it), payload(w, it), core.PostOptions{})
			return err
		})
		return Row{
			Label:      label,
			Throughput: run.ModeledThroughput(cfg.Scale),
			Latency:    run.Latency.Summarize().Scaled(cfg.Scale),
			Errors:     run.Errs,
		}
	}

	res.Rows = append(res.Rows, phase("steady", 0))
	leader := raftSvc.WaitLeader(5 * time.Second)
	raftSvc.KillNode(leader)
	res.Rows = append(res.Rows, phase("post-crash", 1))
	raftSvc.RestartNode(leader)
	res.Rows = append(res.Rows, phase("healed", 2))
	return res, nil
}
