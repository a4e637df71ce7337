package provenance

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// wireClient is a submitting client as the peer presents it to chaincode:
// the serialized identity plus what the peer's MSP resolved it to.
type wireClient struct {
	creator []byte
	client  shim.ClientIdentity
}

// invokeAs runs an invocation with a specific creator identity through the
// fixture's commit path.
func (l *ledger) invokeAs(as wireClient, fn string, args ...string) shim.Response {
	raw := make([][]byte, len(args))
	for i, a := range args {
		raw[i] = []byte(a)
	}
	return l.commitInvoke(fn, raw, func(stub *shim.Stub) shim.Response {
		// Rebuild the stub with the caller's creator.
		l.block++
		s := shim.NewStub(shim.Config{
			TxID:      fmt.Sprintf("tx-acl-%d", l.block),
			ChannelID: "ch",
			Function:  fn,
			Args:      raw,
			Creator:   as.creator,
			Client:    func() shim.ClientIdentity { return as.client },
			Timestamp: time.Unix(int64(1570000000+l.block), 0).UTC(),
			State:     l.state,
			History:   l.history,
		})
		resp := l.cc.Invoke(s)
		if resp.Status != shim.OK {
			return resp
		}
		// Copy the rwset writes into the outer stub so commitInvoke applies
		// them (the outer stub ran nothing).
		rws := s.RWSet()
		for _, w := range rws.Writes {
			if w.IsDelete {
				_ = stub.DelState(w.Key)
			} else {
				_ = stub.PutState(w.Key, w.Value)
			}
		}
		return resp
	})
}

func enrollWire(t *testing.T, ca *identity.CA, name string, role identity.Role) wireClient {
	t.Helper()
	sid, err := ca.Enroll(name, role)
	if err != nil {
		t.Fatal(err)
	}
	id, err := identity.NewMSP(ca).Deserialize(sid.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	return wireClient{
		creator: sid.Serialize(),
		client:  shim.ClientIdentity{Subject: id.Subject(), Admin: id.Role() == identity.RoleAdmin},
	}
}

func TestOwnershipEnforced(t *testing.T) {
	l := newLedger(t)
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	alice := enrollWire(t, ca, "alice", identity.RoleClient)
	bob := enrollWire(t, ca, "bob", identity.RoleClient)
	admin := enrollWire(t, ca, "boss", identity.RoleAdmin)

	set := func(as wireClient, key, checksum string) shim.Response {
		in, err := json.Marshal(setArgs{Key: key, Checksum: checksum})
		if err != nil {
			t.Fatal(err)
		}
		return l.invokeAs(as, FnSet, string(in))
	}

	// Alice creates; Bob may not update or delete; Alice may; admin may.
	if resp := set(alice, "alice-item", "v1"); resp.Status != shim.OK {
		t.Fatalf("alice create: %s", resp.Message)
	}
	if resp := set(bob, "alice-item", "v2-bob"); resp.Status == shim.OK {
		t.Fatal("bob updated alice's record")
	} else if !strings.Contains(resp.Message, "owned by") {
		t.Errorf("unexpected rejection message: %s", resp.Message)
	}
	if resp := l.invokeAs(bob, FnDelete, "alice-item"); resp.Status == shim.OK {
		t.Fatal("bob deleted alice's record")
	}
	if resp := set(alice, "alice-item", "v2"); resp.Status != shim.OK {
		t.Fatalf("alice update: %s", resp.Message)
	}
	if resp := set(admin, "alice-item", "v3-admin"); resp.Status != shim.OK {
		t.Fatalf("admin update: %s", resp.Message)
	}
	if resp := l.invokeAs(admin, FnDelete, "alice-item"); resp.Status != shim.OK {
		t.Fatalf("admin delete: %s", resp.Message)
	}
}

func TestOwnerRecordedFromWireIdentity(t *testing.T) {
	l := newLedger(t)
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	alice := enrollWire(t, ca, "alice", identity.RoleClient)
	in, err := json.Marshal(setArgs{Key: "k", Checksum: "c", Creator: "display-name"})
	if err != nil {
		t.Fatal(err)
	}
	if resp := l.invokeAs(alice, FnSet, string(in)); resp.Status != shim.OK {
		t.Fatal(resp.Message)
	}
	resp := l.query(FnGet, "k")
	if resp.Status != shim.OK {
		t.Fatal(resp.Message)
	}
	rec := decodeRecord(t, resp.Payload)
	if rec.Creator != "display-name" {
		t.Errorf("creator = %q", rec.Creator)
	}
	if rec.Owner != "x509::CN=alice,O=Org1,OU=client" {
		t.Errorf("owner = %q", rec.Owner)
	}
}

func TestAuthorizeMutationLegacyRecords(t *testing.T) {
	// Records written before ownership tracking have no Owner; the Creator
	// field acts as owner.
	legacy, err := json.Marshal(Record{Key: "k", Checksum: "c", Creator: "old-owner"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := authorizeMutation(legacy, shim.ClientIdentity{Subject: "old-owner"}); err != nil {
		t.Errorf("legacy owner rejected: %v", err)
	}
	if _, err := authorizeMutation(legacy, shim.ClientIdentity{Subject: "someone-else"}); err == nil {
		t.Error("legacy record mutated by non-owner")
	}
	if _, err := authorizeMutation([]byte("corrupt"), shim.ClientIdentity{Subject: "x"}); err == nil {
		t.Error("corrupt record authorized")
	}
	if _, err := authorizeMutation(nil, shim.ClientIdentity{Subject: "anyone"}); err != nil {
		t.Errorf("fresh key rejected: %v", err)
	}
}
