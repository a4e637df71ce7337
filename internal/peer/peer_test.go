package peer

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// fixture bundles one peer with a client identity for direct-drive tests.
type fixture struct {
	t       *testing.T
	ca      *identity.CA
	msp     *identity.MSP
	peer    *Peer
	client  *identity.SigningIdentity
	channel string
	nextTx  int
}

func newFixture(t *testing.T) *fixture { return newFixtureOn(t, "ch") }

// newFixtureOn builds a fixture whose peer and proposals are bound to the
// given channel, so multi-channel tests can run one reference fixture per
// channel.
func newFixtureOn(t *testing.T, channel string) *fixture {
	t.Helper()
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	msp := identity.NewMSP(ca)
	signer, err := ca.Enroll("peer0", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	client, err := ca.Enroll("client0", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	p := newVolatile(t, Config{Name: "peer0", Signer: signer, MSP: msp}, channel)
	if err := p.InstallChaincode(provenance.ChaincodeName, provenance.New(),
		endorser.SignedBy("Org1MSP")); err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, ca: ca, msp: msp, peer: p, client: client, channel: channel}
}

// newVolatile builds a one-channel volatile host and returns its peer.
func newVolatile(t *testing.T, cfg Config, channel string) *Peer {
	t.Helper()
	cfg.Channels = []string{channel}
	h, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h.Channel(channel)
}

// propose builds and signs a proposal from the fixture's client.
func (f *fixture) propose(fn string, args ...string) *endorser.Proposal {
	f.t.Helper()
	f.nextTx++
	raw := make([][]byte, len(args))
	for i, a := range args {
		raw[i] = []byte(a)
	}
	creator := f.client.Serialize()
	txID, err := endorser.NewTxID(creator)
	if err != nil {
		f.t.Fatal(err)
	}
	p := &endorser.Proposal{
		TxID:      txID,
		ChannelID: f.channel,
		Chaincode: provenance.ChaincodeName,
		Function:  fn,
		Args:      raw,
		Creator:   creator,
		Timestamp: time.Now().UTC(),
	}
	sig, err := f.client.Sign(p.SignedBytes())
	if err != nil {
		f.t.Fatal(err)
	}
	p.Signature = sig
	return p
}

// envelopeFor turns an endorsed proposal into a signed envelope.
func (f *fixture) envelopeFor(prop *endorser.Proposal, resp *endorser.Response) blockstore.Envelope {
	f.t.Helper()
	env := blockstore.Envelope{
		TxID:      prop.TxID,
		ChannelID: prop.ChannelID,
		Chaincode: prop.Chaincode,
		Function:  prop.Function,
		Args:      prop.Args,
		Creator:   prop.Creator,
		Timestamp: prop.Timestamp,
		RWSet:     resp.RWSet,
		Response:  resp.Payload,
		Events:    resp.Events,
		Endorsements: []blockstore.Endorsement{
			{Endorser: resp.Endorser, Signature: resp.Signature},
		},
	}
	sig, err := f.client.Sign(env.SignedBytes())
	if err != nil {
		f.t.Fatal(err)
	}
	env.Signature = sig
	return env
}

// commitEnvs commits the envelopes as the next block and returns it.
func (f *fixture) commitEnvs(envs ...blockstore.Envelope) *blockstore.Block {
	f.t.Helper()
	b := blockstore.NewBlock(f.peer.Height(), f.peer.Ledger().LastHash(), envs)
	f.peer.CommitBlock(b)
	return b
}

// run executes the full endorse->commit path for a set invocation.
func (f *fixture) set(key, checksum string, parents ...string) blockstore.ValidationCode {
	f.t.Helper()
	in := map[string]any{"key": key, "checksum": checksum}
	if len(parents) > 0 {
		in["parents"] = parents
	}
	raw, err := json.Marshal(in)
	if err != nil {
		f.t.Fatal(err)
	}
	prop := f.propose(provenance.FnSet, string(raw))
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		f.t.Fatalf("ProcessProposal: %v", err)
	}
	env := f.envelopeFor(prop, resp)
	f.commitEnvs(env)
	return f.committed(env.TxID).Code
}

// committed waits (a second at most) for txID to commit on the fixture's
// peer and returns where it did.
func (f *fixture) committed(txID string) blockstore.TxLocator {
	f.t.Helper()
	stop := make(chan struct{})
	defer time.AfterFunc(time.Second, func() { close(stop) }).Stop()
	loc, ok := f.peer.WaitTx(txID, stop)
	if !ok {
		f.t.Fatalf("tx %s did not commit", txID)
	}
	return loc
}

func TestInitThenSetCommits(t *testing.T) {
	f := newFixture(t)
	// Instantiate via the reserved init function.
	prop := f.propose(InitFunction)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		t.Fatalf("init proposal: %v", err)
	}
	f.commitEnvs(f.envelopeFor(prop, resp))

	if code := f.set("item1", "sha256:abc"); code != blockstore.TxValid {
		t.Fatalf("set validation = %s", code)
	}
	// Query the committed record.
	qr, err := f.peer.Query(provenance.ChaincodeName, provenance.FnGet,
		[][]byte{[]byte("item1")}, f.client.Serialize())
	if err != nil || qr.Status != shim.OK {
		t.Fatalf("query: %v %+v", err, qr)
	}
	var rec provenance.Record
	if err := json.Unmarshal(qr.Payload, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Checksum != "sha256:abc" {
		t.Errorf("record = %+v", rec)
	}
}

func TestProposalBadSignatureRejected(t *testing.T) {
	f := newFixture(t)
	prop := f.propose(InitFunction)
	prop.Function = provenance.FnGetStats // mutate after signing
	if _, err := f.peer.ProcessProposal(prop); err == nil {
		t.Fatal("tampered proposal endorsed")
	}
}

func TestProposalUnknownChaincode(t *testing.T) {
	f := newFixture(t)
	prop := f.propose(InitFunction)
	prop.Chaincode = "ghost"
	sig, err := f.client.Sign(prop.SignedBytes())
	if err != nil {
		t.Fatal(err)
	}
	prop.Signature = sig
	_, err = f.peer.ProcessProposal(prop)
	if !errors.Is(err, ErrUnknownChaincode) {
		t.Fatalf("err = %v, want ErrUnknownChaincode", err)
	}
}

// A peer endorses only proposals for its own channel: the response's
// signature does not bind the channel, so an endorsement simulated on
// chan-b would pass for one of chan-a.
func TestProposalForAnotherChannelRefused(t *testing.T) {
	f := newFixtureOn(t, "chan-b")
	f.channel = "chan-a"
	_, err := f.peer.ProcessProposal(f.propose(InitFunction))
	if !errors.Is(err, ErrWrongChannel) {
		t.Fatalf("err = %v, want ErrWrongChannel", err)
	}
	if got := f.peer.Metrics().Counter(metrics.EndorsementsServed).Value(); got != 0 {
		t.Errorf("endorsements_served = %d after a refused proposal", got)
	}
}

func TestSimulationFailureNotEndorsed(t *testing.T) {
	f := newFixture(t)
	prop := f.propose(provenance.FnGet, "missing-key")
	_, err := f.peer.ProcessProposal(prop)
	if !errors.Is(err, ErrSimulationFailed) {
		t.Fatalf("err = %v, want ErrSimulationFailed", err)
	}
}

func TestMVCCConflictInvalidatesSecondTx(t *testing.T) {
	f := newFixture(t)
	propInit := f.propose(InitFunction)
	respInit, err := f.peer.ProcessProposal(propInit)
	if err != nil {
		t.Fatal(err)
	}
	f.commitEnvs(f.envelopeFor(propInit, respInit))

	// Two clients simulate against the same snapshot, writing the same key;
	// both land in one block. Exactly the first must commit.
	mkSet := func() (blockstore.Envelope, string) {
		raw := []byte(`{"key":"contested","checksum":"c"}`)
		prop := f.propose(provenance.FnSet, string(raw))
		resp, err := f.peer.ProcessProposal(prop)
		if err != nil {
			t.Fatal(err)
		}
		return f.envelopeFor(prop, resp), prop.TxID
	}
	env1, tx1 := mkSet()
	env2, tx2 := mkSet()
	f.commitEnvs(env1, env2)
	ev1, ev2 := f.committed(tx1), f.committed(tx2)
	if ev1.Code != blockstore.TxValid {
		t.Errorf("first tx = %s, want VALID", ev1.Code)
	}
	if ev2.Code != blockstore.TxMVCCConflict {
		t.Errorf("second tx = %s, want MVCC_READ_CONFLICT", ev2.Code)
	}
}

func TestEndorsementPolicyFailureAtValidation(t *testing.T) {
	f := newFixture(t)
	prop := f.propose(InitFunction)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	env := f.envelopeFor(prop, resp)
	env.Endorsements = nil // strip endorsements
	sig, err := f.client.Sign(env.SignedBytes())
	if err != nil {
		t.Fatal(err)
	}
	env.Signature = sig
	f.commitEnvs(env)
	if ev := f.committed(env.TxID); ev.Code != blockstore.TxEndorsementPolicyFailure {
		t.Errorf("code = %s, want ENDORSEMENT_POLICY_FAILURE", ev.Code)
	}
}

func TestBadEnvelopeSignatureInvalidated(t *testing.T) {
	f := newFixture(t)
	prop := f.propose(InitFunction)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	env := f.envelopeFor(prop, resp)
	env.Function = "tampered-after-signing"
	f.commitEnvs(env)
	if ev := f.committed(env.TxID); ev.Code != blockstore.TxBadSignature {
		t.Errorf("code = %s, want BAD_SIGNATURE", ev.Code)
	}
}

func TestMalformedRWSetInvalidated(t *testing.T) {
	f := newFixture(t)
	prop := f.propose(InitFunction)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	env := f.envelopeFor(prop, resp)
	env.RWSet = []byte("not a real rwset")
	sig, err := f.client.Sign(env.SignedBytes())
	if err != nil {
		t.Fatal(err)
	}
	env.Signature = sig
	f.commitEnvs(env)
	if ev := f.committed(env.TxID); ev.Code != blockstore.TxMalformed {
		t.Errorf("code = %s, want MALFORMED", ev.Code)
	}
}

func TestDuplicateChaincodeInstall(t *testing.T) {
	f := newFixture(t)
	err := f.peer.InstallChaincode(provenance.ChaincodeName, provenance.New(), nil)
	if !errors.Is(err, ErrChaincodeExists) {
		t.Fatalf("err = %v, want ErrChaincodeExists", err)
	}
}

func TestLedgerChainVerifiesAfterCommits(t *testing.T) {
	f := newFixture(t)
	prop := f.propose(InitFunction)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	f.commitEnvs(f.envelopeFor(prop, resp))
	for i := 0; i < 5; i++ {
		f.set("k"+string(rune('a'+i)), "c")
	}
	if err := f.peer.Ledger().VerifyChain(); err != nil {
		t.Errorf("VerifyChain: %v", err)
	}
	if f.peer.Height() != 6 {
		t.Errorf("height = %d, want 6", f.peer.Height())
	}
}

// The chaincode sees the creator as the peer's MSP resolved it, on the
// endorsement path and on (unsigned) queries alike: a dry-run update of a
// record is authorized for its owner, refused for another client, and a
// creator the MSP does not resolve is nobody in particular.
func TestChaincodeSeesResolvedClient(t *testing.T) {
	f := newFixture(t)
	if code := f.set("owned", "sha256:v1"); code != blockstore.TxValid {
		t.Fatalf("set validation = %s", code)
	}
	qr, err := f.peer.Query(provenance.ChaincodeName, provenance.FnGet,
		[][]byte{[]byte("owned")}, f.client.Serialize())
	if err != nil || qr.Status != shim.OK {
		t.Fatalf("query: %v %+v", err, qr)
	}
	var rec provenance.Record
	if err := json.Unmarshal(qr.Payload, &rec); err != nil {
		t.Fatal(err)
	}
	if want := f.client.Identity().Subject(); rec.Owner != want || rec.Creator != want {
		t.Fatalf("owner = %q, creator = %q, want %q", rec.Owner, rec.Creator, want)
	}

	other, err := f.ca.Enroll("client1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	update := [][]byte{[]byte(`{"key":"owned","checksum":"sha256:v2"}`)}
	for _, tc := range []struct {
		name    string
		creator []byte
		ok      bool
	}{
		{"owner", f.client.Serialize(), true},
		{"another client", other.Serialize(), false},
		{"unresolvable creator", []byte("x509::CN=client0,O=Org1,OU=client?"), false},
	} {
		qr, err := f.peer.Query(provenance.ChaincodeName, provenance.FnSet, update, tc.creator)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := qr.Status == shim.OK; got != tc.ok {
			t.Errorf("%s: dry-run update status %d (%s), want ok=%v", tc.name, qr.Status, qr.Message, tc.ok)
		}
	}
}
