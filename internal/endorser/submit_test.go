package endorser

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/identity"
)

// newProposal's signature must verify over the proposal's signed digest
// under the signer's own identity, with every field the caller named in
// place and a fresh transaction ID each time.
func TestNewProposalIsSignedByCreator(t *testing.T) {
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	client, err := ca.Enroll("client", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	args := [][]byte{[]byte("k"), nil, []byte("v")}
	before := time.Now().UTC()
	prop, err := newProposal(client, "ch", "provenance", "set", args)
	if err != nil {
		t.Fatal(err)
	}
	if prop.ChannelID != "ch" || prop.Chaincode != "provenance" || prop.Function != "set" ||
		len(prop.Args) != 3 || !bytes.Equal(prop.Creator, client.Serialize()) {
		t.Fatalf("proposal fields = %+v", prop)
	}
	if prop.Timestamp.Before(before) || prop.Timestamp.Location() != time.UTC {
		t.Errorf("timestamp %v not a current UTC time", prop.Timestamp)
	}
	if err := client.Identity().VerifyDigest(prop.SignedDigest(), prop.Signature); err != nil {
		t.Errorf("proposal signature: %v", err)
	}
	again, err := newProposal(client, "ch", "provenance", "set", args)
	if err != nil {
		t.Fatal(err)
	}
	if again.TxID == prop.TxID {
		t.Error("two proposals share a transaction ID")
	}
}

// newEnvelope must produce, for a fixed proposal and responses, exactly the
// bytes of the field-by-field envelope literal signed and sealed the long
// way round: the first response's result, every response's endorsement in
// order, the client's signature over the envelope's signed digest.
func TestNewEnvelopeBytesMatchLiteral(t *testing.T) {
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	client, err := ca.Enroll("client", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	var resps []*Response
	for _, name := range []string{"peer0", "peer1"} {
		peer, err := ca.Enroll(name, identity.RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		r := mkResponse(t, peer, []byte{1, 2, 3}, []byte("payload"))
		r.Events = []byte("events")
		resps = append(resps, r)
	}
	prop := goldenProposal
	env, err := newEnvelope(&prop, resps, client)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Identity().VerifyDigest(env.SignedDigest(), env.Signature); err != nil {
		t.Fatalf("envelope signature: %v", err)
	}

	want := blockstore.Envelope{
		TxID: prop.TxID, ChannelID: prop.ChannelID, Chaincode: prop.Chaincode, Function: prop.Function,
		Args: prop.Args, Creator: prop.Creator, Timestamp: prop.Timestamp,
		RWSet: resps[0].RWSet, Response: resps[0].Payload, Events: resps[0].Events,
		Endorsements: []blockstore.Endorsement{
			{Endorser: resps[0].Endorser, Signature: resps[0].Signature},
			{Endorser: resps[1].Endorser, Signature: resps[1].Signature},
		},
		Signature: env.Signature,
	}
	wantBytes, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Error("newEnvelope's sealed bytes differ from the literal envelope's encoding")
	}
	if _, sealed := env.EncodedLen(); !sealed {
		t.Error("newEnvelope returned an unsealed envelope")
	}
}

// Transact hands endorse a proposal the signer signed, returns endorse's
// error as it is, and signs the envelope over the endorsements endorse
// returned.
func TestTransactSignsBothHalves(t *testing.T) {
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	client, err := ca.Enroll("client", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ca.Enroll("peer0", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	refused := errors.New("no endorser answered")
	if _, err := Transact(client, "ch", "provenance", "set", nil,
		func(*Proposal) ([]*Response, error) { return nil, refused }); err != refused {
		t.Fatalf("endorse error came back as %v, want it as it is", err)
	}
	var asked *Proposal
	env, err := Transact(client, "ch", "provenance", "set", [][]byte{[]byte("k")},
		func(prop *Proposal) ([]*Response, error) {
			asked = prop
			return []*Response{mkResponse(t, peer, []byte{1}, []byte("payload"))}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Identity().VerifyDigest(asked.SignedDigest(), asked.Signature); err != nil {
		t.Errorf("proposal signature: %v", err)
	}
	if env.TxID != asked.TxID || string(env.Response) != "payload" || len(env.Endorsements) != 1 {
		t.Errorf("envelope = %+v, want the proposal's transaction and its one endorsement", env)
	}
	if err := client.Identity().VerifyDigest(env.SignedDigest(), env.Signature); err != nil {
		t.Errorf("envelope signature: %v", err)
	}
}
