package fabric

import (
	"errors"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/leaktest"
	"github.com/hyperprov/hyperprov/internal/orderer"
)

// TestSubmitSurvivesNonCommitPeerFailure: with the single-org "any member"
// policy, losing an endorsing peer (other than the client's commit peer)
// must not stop transactions from committing.
func TestSubmitSurvivesNonCommitPeerFailure(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	setRecord(t, gw, "before-failure", "cs")

	// Take down peer 3 (not the commit peer). Endorsement on it will fail;
	// the remaining peers still satisfy the policy.
	n.Peers()[3].Stop()
	setRecord(t, gw, "after-failure", "cs")

	// Quorum loss: chaincode missing everywhere -> endorsement error.
	_, err = submit(gw, "no-such-chaincode", "set", []byte("{}"))
	if !errors.Is(err, ErrEndorsement) {
		t.Errorf("err = %v, want ErrEndorsement", err)
	}
}

// TestCommitTimeout: a transaction that never commits on the commit peer (it
// is detached from its orderer) must fail with ErrCommitTimeout rather than
// hanging, and must leave no commit-wait running.
func TestCommitTimeout(t *testing.T) {
	base := leaktest.Count(leaktest.CommitWait)
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	gw.commitTimeout = time.Millisecond
	// Detach the commit peer from the ordered stream: endorsement still
	// works (its state is live), but it will never see the block.
	n.Peers()[0].Stop()
	_, err = submit(gw, provenance.ChaincodeName, provenance.FnSet,
		[]byte(`{"key":"k","checksum":"c"}`))
	if !errors.Is(err, ErrCommitTimeout) {
		t.Errorf("err = %v, want ErrCommitTimeout", err)
	}
	leaktest.Settle(t, base, leaktest.CommitWait)
}

// TestGatewayOnSharedExecutor: logical clients sharing one device executor
// (the bench topology) work end to end and account costs on that executor.
func TestGatewayOnSharedExecutor(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	exec := device.NewExecutor(device.XeonE51603, device.NopClock{}, 5)
	a, err := n.NewGatewayOn("worker", exec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.NewGatewayOn("worker", exec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Identity().ID() == b.Identity().ID() {
		t.Error("shared-executor gateways share an identity")
	}
	setRecord(t, a, "shared-1", "cs")
	setRecord(t, b, "shared-2", "cs")
	if exec.BusyTime() == 0 {
		t.Error("no client cost accounted on the shared executor")
	}
}

// TestOrdererStopFailsSubmitsCleanly: submissions after the ordering
// service stops return an error instead of hanging; the rejected broadcast
// leaves no commit-wait running, and the stopped orderer no peer feed.
func TestOrdererStopFailsSubmitsCleanly(t *testing.T) {
	base := leaktest.Count(leaktest.CommitWait, leaktest.PeerFeed)
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	n.Orderer().Stop()
	_, err = submit(gw, provenance.ChaincodeName, provenance.FnSet,
		[]byte(`{"key":"k","checksum":"c"}`))
	if err == nil {
		t.Fatal("submit after orderer stop succeeded")
	}
	if !errors.Is(err, orderer.ErrStopped) {
		t.Logf("err = %v (any error acceptable, ErrStopped preferred)", err)
	}
	leaktest.Settle(t, base, leaktest.CommitWait, leaktest.PeerFeed)
}

// The orderer's batch timer runs in wall time, so the network scales each
// channel's BatchTimeout with its modeled clock: a lone transaction in a
// 1,000-envelope batch is cut after 20 s × 0.01 = 200 ms — not 20 s, which
// would also outlast the scaled commit timeout.
func TestBatchTimeoutScalesWithClock(t *testing.T) {
	cfg := testConfig()
	cfg.Clock = device.RealClock{ScaleFactor: 0.01}
	cfg.Batch = orderer.BatchConfig{MaxMessageCount: 1000, BatchTimeout: 20 * time.Second, PreferredMaxBytes: 1 << 30}
	n := newTestNetwork(t, cfg)
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	setRecord(t, gw, "timed", "cs")
	if el := time.Since(start); el < 150*time.Millisecond || el > 2*time.Second {
		t.Errorf("commit took %v, want about the scaled 200 ms batch timeout", el)
	}
}
