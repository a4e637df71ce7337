package fabric

import (
	"errors"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/device"
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
	_, err = gw.Submit("no-such-chaincode", "set", []byte("{}"))
	if !errors.Is(err, ErrEndorsement) {
		t.Errorf("err = %v, want ErrEndorsement", err)
	}
}

// TestCommitTimeout: a transaction whose commit event never arrives (the
// commit peer is detached from the block stream) must fail with
// ErrCommitTimeout rather than hanging, and must not leave its commit
// listener registered on the peer.
func TestCommitTimeout(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	gw.SetCommitTimeout(time.Millisecond)
	// Detach the commit peer from the ordered stream: endorsement still
	// works (its state is live), but it will never see the block.
	n.Peers()[0].Stop()
	_, err = gw.Submit(provenance.ChaincodeName, provenance.FnSet,
		[]byte(`{"key":"k","checksum":"c"}`))
	if !errors.Is(err, ErrCommitTimeout) {
		t.Errorf("err = %v, want ErrCommitTimeout", err)
	}
	if got := n.Peers()[0].PendingTxListeners(); got != 0 {
		t.Errorf("%d commit listeners left registered after the timeout", got)
	}
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
// service stops return an error instead of hanging, and the rejected
// broadcast does not leave its commit listener registered.
func TestOrdererStopFailsSubmitsCleanly(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	n.Orderer().Stop()
	_, err = gw.Submit(provenance.ChaincodeName, provenance.FnSet,
		[]byte(`{"key":"k","checksum":"c"}`))
	if err == nil {
		t.Fatal("submit after orderer stop succeeded")
	}
	if !errors.Is(err, orderer.ErrStopped) {
		t.Logf("err = %v (any error acceptable, ErrStopped preferred)", err)
	}
	if got := n.Peers()[0].PendingTxListeners(); got != 0 {
		t.Errorf("%d commit listeners left registered after the rejected broadcast", got)
	}
}
