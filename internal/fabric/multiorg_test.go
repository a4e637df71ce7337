package fabric

import (
	"testing"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
)

func multiOrgConfig() Config {
	cfg := testConfig()
	cfg.Orgs = []string{"OrgA", "OrgB", "OrgC"}
	return cfg
}

func TestMultiOrgEndorsementSucceeds(t *testing.T) {
	n := newTestNetwork(t, multiOrgConfig())
	// Peers are spread round-robin over the three orgs.
	orgs := map[string]bool{}
	for _, p := range n.Peers() {
		orgs[p.Name()] = true
	}
	if len(orgs) != 4 {
		t.Fatalf("peers = %v", orgs)
	}
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	res := setRecord(t, gw, "consortium-item", "cs")
	if res.TxID == "" {
		t.Error("no txid")
	}
	// The record is queryable and carries the creator's org.
	payload, err := gw.Evaluate(provenance.ChaincodeName, provenance.FnGet, []byte("consortium-item"))
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) == 0 {
		t.Error("empty record")
	}
}

func TestMultiOrgMajorityPolicyEnforced(t *testing.T) {
	n := newTestNetwork(t, multiOrgConfig())
	// 3 orgs -> majority policy needs 2 distinct orgs. A single org's
	// endorsement must NOT satisfy it.
	policy := n.Policy()
	if policy.Evaluate([]string{"OrgAMSP"}) {
		t.Error("single org satisfied majority policy")
	}
	if !policy.Evaluate([]string{"OrgAMSP", "OrgCMSP"}) {
		t.Error("two orgs did not satisfy majority policy")
	}
}

func TestNewGatewayForSpecificOrg(t *testing.T) {
	n := newTestNetwork(t, multiOrgConfig())
	gw, err := n.NewGatewayFor("OrgB", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if got := gw.Identity().Org(); got != "OrgB" {
		t.Errorf("client org = %q, want OrgB", got)
	}
	setRecord(t, gw, "orgb-item", "cs")

	if _, err := n.NewGatewayFor("NoSuchOrg", "x"); err == nil {
		t.Error("unknown org accepted")
	}
}

func TestCrossOrgOwnershipStillEnforced(t *testing.T) {
	n := newTestNetwork(t, multiOrgConfig())
	alice, err := n.NewGatewayFor("OrgA", "alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := n.NewGatewayFor("OrgB", "bob")
	if err != nil {
		t.Fatal(err)
	}
	setRecord(t, alice, "cross-org", "v1")
	// Bob (another org) cannot overwrite Alice's record.
	in := []byte(`{"key":"cross-org","checksum":"v2"}`)
	if _, err := submit(bob, provenance.ChaincodeName, provenance.FnSet, in); err == nil {
		t.Error("cross-org overwrite succeeded")
	}
}
