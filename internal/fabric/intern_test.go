package fabric

import (
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/peer"
)

// chainOf reads p's whole chain into a slice, for tests that index it.
func chainOf(p *peer.Peer) []*blockstore.Block {
	var chain []*blockstore.Block
	p.Blocks(0, func(b *blockstore.Block) error { chain = append(chain, b); return nil })
	return chain
}

// endorsedEnvelope has peer 0 endorse a set of key by the gateway's client
// and returns the unsigned envelope; callers damage it before (or instead
// of) signing to produce transactions that must be invalidated at commit.
func endorsedEnvelope(t *testing.T, n *Network, gw *Gateway, key string) blockstore.Envelope {
	t.Helper()
	creator := gw.Identity().Serialize()
	txID, err := endorser.NewTxID(creator)
	if err != nil {
		t.Fatal(err)
	}
	prop := &endorser.Proposal{
		TxID:      txID,
		ChannelID: n.ChannelID(),
		Chaincode: provenance.ChaincodeName,
		Function:  provenance.FnSet,
		Args:      [][]byte{[]byte(`{"key":"` + key + `","checksum":"cs"}`)},
		Creator:   creator,
		Timestamp: time.Now().UTC(),
	}
	if prop.Signature, err = gw.Identity().Sign(prop.SignedBytes()); err != nil {
		t.Fatal(err)
	}
	resp, err := n.Peers()[0].ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	return blockstore.Envelope{
		TxID:         prop.TxID,
		ChannelID:    prop.ChannelID,
		Chaincode:    prop.Chaincode,
		Function:     prop.Function,
		Args:         prop.Args,
		Creator:      prop.Creator,
		Timestamp:    prop.Timestamp,
		RWSet:        resp.RWSet,
		Response:     resp.Payload,
		Events:       resp.Events,
		Endorsements: []blockstore.Endorsement{{Endorser: resp.Endorser, Signature: resp.Signature}},
	}
}

// TestInterningInvisibleToVerdicts commits one block stream twice: on the
// network's peers, which share one MSP (so every identity is interned by
// whichever component resolves it first and the rest hit the table), and on
// peers that each trust the network through a fresh verification-only MSP
// (so each resolves every identity itself, cold). Validation codes and state
// fingerprints must be identical: sharing resolved identities changes cost,
// never a verdict.
func TestInterningInvisibleToVerdicts(t *testing.T) {
	n := newTestNetwork(t, multiOrgConfig())
	alice, err := n.NewGatewayFor("OrgA", "alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := n.NewGatewayFor("OrgB", "bob")
	if err != nil {
		t.Fatal(err)
	}
	setRecordSettled(t, alice, "eq-a", "cs1")
	setRecordSettled(t, bob, "eq-b", "cs2", "eq-a")
	setRecordSettled(t, alice, "eq-a", "cs3") // owner update

	// Three transactions that order but must not commit as valid.
	tampered := endorsedEnvelope(t, n, bob, "eq-tampered")
	if tampered.Signature, err = bob.Identity().Sign(tampered.SignedBytes()); err != nil {
		t.Fatal(err)
	}
	tampered.Function = "tampered-after-signing"
	unendorsed := endorsedEnvelope(t, n, alice, "eq-unendorsed")
	unendorsed.Endorsements = nil
	if unendorsed.Signature, err = alice.Identity().Sign(unendorsed.SignedBytes()); err != nil {
		t.Fatal(err)
	}
	stranger, err := identity.NewCA("OrgZ")
	if err != nil {
		t.Fatal(err)
	}
	eve, err := stranger.Enroll("eve", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	foreign := endorsedEnvelope(t, n, alice, "eq-foreign")
	foreign.Creator = eve.Serialize()
	if foreign.Signature, err = eve.Sign(foreign.SignedBytes()); err != nil {
		t.Fatal(err)
	}
	for _, env := range []blockstore.Envelope{tampered, unendorsed, foreign} {
		if err := n.Orderer().Submit(env); err != nil {
			t.Fatal(err)
		}
	}
	setRecord(t, bob, "eq-last", "cs4") // ordered after the three: all are committed once this returns

	ref := n.Peers()[0]
	chain := chainOf(ref)
	wantFP := ref.StateFingerprint()
	codes := map[blockstore.ValidationCode]int{}
	for _, b := range chain {
		for _, c := range b.TxValidation {
			codes[c]++
		}
	}
	if codes[blockstore.TxBadSignature] != 2 || codes[blockstore.TxEndorsementPolicyFailure] != 1 {
		t.Fatalf("reference chain verdicts = %v, want 2 bad signatures and 1 policy failure", codes)
	}
	for _, p := range n.Peers()[1:] {
		waitFor(t, func() bool { return p.Height() == ref.Height() })
		if got := p.StateFingerprint(); got != wantFP {
			t.Errorf("%s (shared MSP): fingerprint %s, want %s", p.Name(), got, wantFP)
		}
	}

	for i := 0; i < 2; i++ {
		msp := identity.NewMSP()
		for _, ca := range n.CAs() {
			vca, err := identity.NewVerifyingCA(ca.CertPEM())
			if err != nil {
				t.Fatal(err)
			}
			msp.AddCA(vca)
		}
		signer, err := stranger.Enroll("joiner"+string(rune('0'+i)), identity.RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		host, err := peer.NewHost(peer.Config{
			Name: signer.ID(), Signer: signer, MSP: msp, Channels: []string{n.ChannelID()},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer host.Stop()
		p := host.Channel(n.ChannelID())
		if err := p.InstallChaincode(provenance.ChaincodeName, provenance.New(), n.Policy()); err != nil {
			t.Fatal(err)
		}
		for _, b := range chain {
			p.CommitBlock(b)
		}
		if p.Height() != ref.Height() {
			t.Fatalf("%s: height %d, want %d", p.Name(), p.Height(), ref.Height())
		}
		if got := p.StateFingerprint(); got != wantFP {
			t.Errorf("%s (fresh MSP): fingerprint %s, want %s", p.Name(), got, wantFP)
		}
		for j, b := range chainOf(p) {
			for k, c := range b.TxValidation {
				if want := chain[j].TxValidation[k]; c != want {
					t.Errorf("%s: block %d tx %d = %s, want %s", p.Name(), j, k, c, want)
				}
			}
		}
		if st := msp.IdentityStats(); st.Misses == 0 || st.Hits == 0 {
			t.Errorf("%s: identity table untouched: %+v", p.Name(), st)
		}
	}
}
