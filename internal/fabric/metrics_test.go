package fabric

import (
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
)

func TestPeerMetricsReflectTraffic(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	const txs = 3
	for i := 0; i < txs; i++ {
		setRecord(t, gw, "m-item-"+string(rune('a'+i)), "cs")
	}
	if _, err := gw.Evaluate(provenance.ChaincodeName, provenance.FnGet, []byte("m-item-a")); err != nil {
		t.Fatal(err)
	}

	p0 := n.Peers()[0]
	waitFor(t, func() bool {
		return p0.Metrics().Counter(metrics.TxValidated).Value() >= txs
	})
	snap := p0.Metrics().Snapshot()
	// Deploy init + txs endorsements.
	if snap[metrics.EndorsementsServed] < txs {
		t.Errorf("endorsements_served = %d, want >= %d", snap[metrics.EndorsementsServed], txs)
	}
	if snap[metrics.BlocksCommitted] < txs {
		t.Errorf("blocks_committed = %d", snap[metrics.BlocksCommitted])
	}
	if snap[metrics.QueriesServed] < 1 {
		t.Errorf("queries_served = %d", snap[metrics.QueriesServed])
	}
	if snap[metrics.TxInvalidated] != 0 {
		t.Errorf("tx_invalidated = %d, want 0", snap[metrics.TxInvalidated])
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLateSubscriberReplaysChain verifies orderer-replay catch-up: a peer
// attached after traffic pulls the whole chain from block 0.
func TestLateSubscriberReplaysChain(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		setRecord(t, gw, "l-item-"+string(rune('a'+i)), "cs")
	}
	target := n.Peers()[0].Height()

	// A brand-new peer subscribing now must replay everything.
	signer, err := n.CA().Enroll("late-peer", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	late := standalonePeer(t, n, "late-peer", signer)
	if err := late.InstallChaincode(provenance.ChaincodeName, provenance.New(), n.Policy()); err != nil {
		t.Fatal(err)
	}
	late.Start(n.Orderer())
	defer late.Stop()

	waitFor(t, func() bool { return late.Height() >= target })
	if err := late.Ledger().VerifyChain(); err != nil {
		t.Errorf("late peer chain: %v", err)
	}
}
