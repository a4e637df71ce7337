package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// testConfig returns a fast network: zero modeled cost, tiny batches.
func testConfig() Config {
	cfg := DesktopConfig()
	cfg.Clock = device.NopClock{}
	cfg.Batch = orderer.BatchConfig{
		MaxMessageCount: 1, BatchTimeout: 50 * time.Millisecond, PreferredMaxBytes: 1 << 30,
	}
	for i := range cfg.PeerProfiles {
		cfg.PeerProfiles[i].JitterPct = 0
	}
	return cfg
}

func newTestNetwork(t testing.TB, cfg Config) *Network {
	t.Helper()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	if err := n.DeployChaincode(provenance.ChaincodeName,
		func() shim.Chaincode { return provenance.New() }); err != nil {
		t.Fatal(err)
	}
	return n
}

func setRecord(t testing.TB, gw *Gateway, key, checksum string, parents ...string) *blockstore.TxResult {
	t.Helper()
	in := map[string]any{"key": key, "checksum": checksum}
	if len(parents) > 0 {
		in["parents"] = parents
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gw.Submit(provenance.ChaincodeName, provenance.FnSet, raw)
	if err != nil {
		t.Fatalf("Submit set %q: %v", key, err)
	}
	return res
}

func TestEndToEndSubmitAndQuery(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	res := setRecord(t, gw, "item1", "sha256:abc")
	if res.TxID == "" || res.Latency <= 0 {
		t.Errorf("result = %+v", res)
	}
	payload, err := gw.Evaluate(provenance.ChaincodeName, provenance.FnGet, []byte("item1"))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	var rec provenance.Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Checksum != "sha256:abc" {
		t.Errorf("record = %+v", rec)
	}
	if rec.Creator == "" {
		t.Error("creator not recorded")
	}
}

func TestAllPeersConverge(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		setRecord(t, gw, fmt.Sprintf("item%d", i), fmt.Sprintf("cs%d", i))
	}
	// All four peers must reach the same height with verified chains.
	deadline := time.Now().Add(5 * time.Second)
	for {
		heights := map[uint64]int{}
		for _, p := range n.Peers() {
			heights[p.Height()]++
		}
		if len(heights) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peers did not converge: %v", heights)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, p := range n.Peers() {
		if err := p.Ledger().VerifyChain(); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
	// Every peer answers the same query identically.
	for _, p := range n.Peers() {
		resp, err := p.Query(provenance.ChaincodeName, provenance.FnGet,
			[][]byte{[]byte("item3")}, gw.Identity().Serialize())
		if err != nil || resp.Status != shim.OK {
			t.Errorf("%s query: %v %+v", p.Name(), err, resp)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	cfg := testConfig()
	cfg.Batch.MaxMessageCount = 5
	n := newTestNetwork(t, cfg)

	const clients = 8
	const txPerClient = 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*txPerClient)
	for c := 0; c < clients; c++ {
		gw, err := n.NewGateway(fmt.Sprintf("client%d", c))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int, gw *Gateway) {
			defer wg.Done()
			for i := 0; i < txPerClient; i++ {
				in := fmt.Sprintf(`{"key":"c%d-item%d","checksum":"cs"}`, c, i)
				if _, err := gw.Submit(provenance.ChaincodeName, provenance.FnSet, []byte(in)); err != nil {
					errs <- err
				}
			}
		}(c, gw)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent submit: %v", err)
	}

	gw, err := n.NewGateway("verifier")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := gw.Evaluate(provenance.ChaincodeName, provenance.FnGetStats)
	if err != nil {
		t.Fatal(err)
	}
	var stats provenance.Stats
	if err := json.Unmarshal(payload, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Records != clients*txPerClient {
		t.Errorf("records = %d, want %d", stats.Records, clients*txPerClient)
	}
}

// TestConcurrentEnrolmentMintsDistinctIdentities: 16 goroutines enrol the
// same client name at once through all three gateway constructors. The
// enrolment sequence number is the only thing telling them apart, so a
// racy counter shows as ErrDuplicateEnrollKey or a repeated subject (and as
// a data race under -race).
func TestConcurrentEnrolmentMintsDistinctIdentities(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	exec := device.NewExecutor(device.XeonE51603, device.NopClock{}, 5)
	const gateways = 16
	gws := make([]*Gateway, gateways)
	errs := make([]error, gateways)
	var wg sync.WaitGroup
	for i := range gws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				gws[i], errs[i] = n.NewGateway("same")
			case 1:
				gws[i], errs[i] = n.NewGatewayFor(n.CA().Org(), "same")
			default:
				gws[i], errs[i] = n.NewGatewayOn("same", exec)
			}
		}(i)
	}
	wg.Wait()
	subjects := map[string]bool{}
	for i, gw := range gws {
		if errs[i] != nil {
			t.Fatalf("gateway %d: %v", i, errs[i])
		}
		subjects[gw.Identity().Identity().Subject()] = true
	}
	if len(subjects) != gateways {
		t.Errorf("%d concurrent enrolments minted %d distinct subjects", gateways, len(subjects))
	}
}

func TestLineageAcrossNetwork(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	setRecord(t, gw, "raw", "c0")
	setRecord(t, gw, "clean", "c1", "raw")
	setRecord(t, gw, "model", "c2", "clean")

	payload, err := gw.Evaluate(provenance.ChaincodeName, provenance.FnGetLineage, []byte("model"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []provenance.Record
	if err := json.Unmarshal(payload, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Errorf("lineage = %d records, want 3", len(recs))
	}
}

func TestRaftNetworkEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.Consensus = ConsensusRaft
	n := newTestNetwork(t, cfg)
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	res := setRecord(t, gw, "raft-item", "cs")
	if res.TxID == "" {
		t.Error("empty txid")
	}
	// Kill the leader mid-stream and verify the network still commits.
	raftSvc, ok := n.Orderer().(*orderer.Raft)
	if !ok {
		t.Fatal("orderer is not raft")
	}
	leader := raftSvc.WaitLeader(5 * time.Second)
	raftSvc.KillNode(leader)
	if l := raftSvc.WaitLeader(5 * time.Second); l < 0 {
		t.Fatal("no leader after crash")
	}
	setRecord(t, gw, "raft-item-2", "cs2")
}

func TestSubmitInvalidChaincodeArgs(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	_, err = gw.Submit(provenance.ChaincodeName, provenance.FnSet, []byte("not json"))
	if !errors.Is(err, ErrEndorsement) {
		t.Fatalf("err = %v, want ErrEndorsement (simulation fails on all peers)", err)
	}
}

func TestEvaluateUnknownFunction(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Evaluate(provenance.ChaincodeName, "bogus"); err == nil {
		t.Error("bogus function evaluated")
	}
}

func TestNetworkConfigValidation(t *testing.T) {
	_, err := NewNetwork(Config{})
	if err == nil {
		t.Error("empty config accepted")
	}
}

func TestRPiConfigShape(t *testing.T) {
	cfg := RPiConfig()
	if len(cfg.PeerProfiles) != 4 {
		t.Errorf("RPi peers = %d, want 4", len(cfg.PeerProfiles))
	}
	for _, p := range cfg.PeerProfiles {
		if p.Name != device.RPi3BPlus.Name {
			t.Errorf("profile = %s", p.Name)
		}
	}
	d := DesktopConfig()
	if len(d.PeerProfiles) != 4 {
		t.Errorf("desktop peers = %d, want 4", len(d.PeerProfiles))
	}
}
