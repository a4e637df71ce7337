package fabric

import (
	"fmt"
	"testing"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/trace"
)

func traceTestConfig() Config {
	return Config{
		Channels:       []ChannelConfig{{ID: "tracech"}},
		Org:            "Org1",
		PeerProfiles:   []device.Profile{device.XeonE51603, device.XeonE51603},
		OrdererProfile: device.XeonE51603,
		Batch:          orderer.BatchConfig{MaxMessageCount: 1, BatchTimeout: orderer.DefaultBatchConfig().BatchTimeout},
		Consensus:      ConsensusSolo,
	}
}

// A submitted transaction must leave a complete lifecycle trace in the
// network's recorder: trace ID == txID, spans for the propose, endorse,
// order, and all three commit stages, and the final validation code as
// outcome.
func TestSubmitLeavesFullLifecycleTrace(t *testing.T) {
	n, err := NewNetwork(traceTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.DeployChaincode("provenance", func() shim.Chaincode { return provenance.New() }); err != nil {
		t.Fatal(err)
	}
	gw, err := n.NewGateway("tracer-client")
	if err != nil {
		t.Fatal(err)
	}
	res, err := submit(gw, "provenance", provenance.FnSet,
		[]byte(`{"key":"trace-k1","checksum":"sha256:0001"}`))
	if err != nil {
		t.Fatal(err)
	}

	tr, ok := n.Tracer().Lookup(res.TxID)
	if !ok {
		t.Fatalf("no trace recorded for committed tx %s", res.TxID)
	}
	if tr.ID != res.TxID {
		t.Errorf("trace ID = %q, want %q", tr.ID, res.TxID)
	}
	if !tr.Done {
		t.Error("trace not completed after commit")
	}
	if tr.Outcome != "VALID" {
		t.Errorf("outcome = %q, want VALID", tr.Outcome)
	}
	if tr.Total <= 0 {
		t.Errorf("total = %v, want > 0", tr.Total)
	}

	want := []string{
		trace.StagePropose,
		trace.StageEndorse,
		trace.StageOrder,
		trace.StageCommitPreval,
		trace.StageCommitMVCC,
		trace.StageCommitPersist,
	}
	stages := make(map[string]trace.Span, len(tr.Spans))
	for _, s := range tr.Spans {
		stages[s.Stage] = s
	}
	for _, st := range want {
		if _, ok := stages[st]; !ok {
			t.Errorf("missing %s span; got %+v", st, tr.Spans)
		}
	}
	if sp := stages[trace.StagePropose]; sp.Peer != "gateway" {
		t.Errorf("propose span peer = %q, want gateway", sp.Peer)
	}
	if sp := stages[trace.StageOrder]; sp.Peer != "orderer" {
		t.Errorf("order span peer = %q, want orderer", sp.Peer)
	}
	// Commit spans come from exactly one peer (peer 0): tracing every peer
	// would duplicate stages and race Complete.
	if sp := stages[trace.StageCommitPersist]; sp.Peer != n.Peers()[0].Name() {
		t.Errorf("persist span peer = %q, want %q", sp.Peer, n.Peers()[0].Name())
	}

	// The completed trace is also visible through the recent and slow views
	// the admin endpoint serves.
	foundRecent := false
	for _, r := range n.Tracer().Recent(0) {
		if r.ID == res.TxID {
			foundRecent = true
		}
	}
	if !foundRecent {
		t.Error("committed trace missing from Recent()")
	}
}

// Every committed transaction's trace must be completed — the live set
// drains back to zero, so the recorder cannot grow without bound under a
// sustained workload.
func TestTracesDrainAfterCommit(t *testing.T) {
	n, err := NewNetwork(traceTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.DeployChaincode("provenance", func() shim.Chaincode { return provenance.New() }); err != nil {
		t.Fatal(err)
	}
	gw, err := n.NewGateway("drain-client")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		arg := fmt.Sprintf(`{"key":"drain-k%d","checksum":"sha256:%04d"}`, i, i)
		if _, err := submit(gw, "provenance", provenance.FnSet, []byte(arg)); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Tracer().LiveCount(); got != 0 {
		t.Errorf("live traces after commits = %d, want 0", got)
	}
	if got := len(n.Tracer().Recent(0)); got < 6 { // 5 sets + instantiate
		t.Errorf("recent traces = %d, want >= 6", got)
	}
}
