package main

import (
	"fmt"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// chainNet is an assembled single-org network on the real clock with the
// provenance chaincode deployed through the normal transaction flow.
type chainNet struct {
	net      *fabric.Network
	gateways []*fabric.Gateway
}

// newChainNet builds a network of the given width. device.NopClock turns
// every modeled Executor charge into a no-op, so only real work is timed.
func newChainNet(peers, maxMessages int, batchTimeout time.Duration, gateways int) (*chainNet, error) {
	profiles := make([]device.Profile, peers)
	for i := range profiles {
		profiles[i] = device.XeonE51603
	}
	n, err := fabric.NewNetwork(fabric.Config{
		Channels:       []fabric.ChannelConfig{{ID: channelID}},
		Org:            "Org1",
		PeerProfiles:   profiles,
		OrdererProfile: device.XeonE51603,
		Clock:          device.NopClock{},
		Batch: orderer.BatchConfig{
			MaxMessageCount:   maxMessages,
			PreferredMaxBytes: 1 << 30,
			BatchTimeout:      batchTimeout,
		},
		Consensus: fabric.ConsensusSolo,
	})
	if err != nil {
		return nil, fmt.Errorf("assemble network: %w", err)
	}
	cn := &chainNet{net: n}
	if err := n.DeployChaincode(provenance.ChaincodeName, func() shim.Chaincode { return provenance.New() }); err != nil {
		n.Stop()
		return nil, fmt.Errorf("deploy chaincode: %w", err)
	}
	// Gateways enroll sequentially: the network's client counter is not
	// synchronised.
	for i := 0; i < gateways; i++ {
		gw, err := n.NewGateway(fmt.Sprintf("bench%d", i))
		if err != nil {
			n.Stop()
			return nil, fmt.Errorf("enroll gateway: %w", err)
		}
		cn.gateways = append(cn.gateways, gw)
	}
	return cn, nil
}

// clients wraps the first numClients gateways as HyperProv clients.
func (cn *chainNet) clients() ([]*core.Client, error) {
	out := make([]*core.Client, numClients)
	for c := range out {
		cl, err := core.New(cn.gateways[c])
		if err != nil {
			return nil, err
		}
		out[c] = cl
	}
	return out, nil
}

// settle waits until every peer has persisted every block the orderer cut.
// The gateway waits for commit on peer 0 only; the others may still be
// validating when Submit returns.
func (cn *chainNet) settle() error {
	want := cn.net.Orderer().Height()
	deadline := time.Now().Add(60 * time.Second)
	for _, p := range cn.net.Peers() {
		for p.Height() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s stuck at height %d, orderer at %d", p.Name(), p.Height(), want)
			}
			time.Sleep(200 * time.Microsecond)
		}
		p.Sync()
	}
	return nil
}

// awaitTx waits until every peer's ledger holds txID, i.e. until a proposal
// endorsed anywhere simulates against state that includes it.
func (cn *chainNet) awaitTx(txID string) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, p := range cn.net.Peers() {
		for {
			if _, ok := p.Ledger().Locate(txID); ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never committed tx %s", p.Name(), txID)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// verify runs the end-of-run checks every network workload shares: all
// peers at the orderer's height with one state fingerprint, every ledger
// copy's hash chain intact, and the exact block shape expected.
func (cn *chainNet) verify(client *core.Client, wantTxsPerBlock float64) (ledgerFacts, error) {
	if err := cn.settle(); err != nil {
		return ledgerFacts{}, err
	}
	peers := cn.net.Peers()
	fp := peers[0].StateFingerprint()
	for _, p := range peers[1:] {
		if got := p.StateFingerprint(); got != fp {
			return ledgerFacts{}, fmt.Errorf("state fingerprint of %s differs from %s", p.Name(), peers[0].Name())
		}
	}
	if err := client.VerifyLedger(); err != nil {
		return ledgerFacts{}, err
	}
	facts := chainFacts(peers[0])
	if facts.TxsPerBlock != wantTxsPerBlock {
		return facts, fmt.Errorf("txs per block %.4f, want exactly %.1f: a block was cut by BatchTimeout", facts.TxsPerBlock, wantTxsPerBlock)
	}
	return facts, nil
}

// chainFacts reads exact per-transaction counts off a peer's ledger,
// skipping block 0 (the chaincode instantiation).
func chainFacts(p *peer.Peer) ledgerFacts {
	var blocks, txs, endorsements, bytes int
	for _, b := range p.BlocksFrom(1) {
		blocks++
		txs += len(b.Envelopes)
		bytes += len(blockstore.MarshalBlock(b))
		for i := range b.Envelopes {
			endorsements += len(b.Envelopes[i].Endorsements)
		}
	}
	var f ledgerFacts
	if blocks > 0 && txs > 0 {
		f.TxsPerBlock = float64(txs) / float64(blocks)
		f.EndorsementsPerTx = float64(endorsements) / float64(txs)
		f.BytesPerTx = float64(bytes) / float64(txs)
	}
	snap := p.Metrics().Snapshot()
	valid, invalid := snap[metrics.TxValidated], snap[metrics.TxInvalidated]
	if valid+invalid > 0 {
		f.InvalidTxRatio = float64(invalid) / float64(valid+invalid)
	}
	return f
}

func (cn *chainNet) stop() { cn.net.Stop() }
