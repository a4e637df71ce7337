package endorser

import (
	"errors"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/identity"
)

func TestNewTxIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id, err := NewTxID([]byte("creator"))
		if err != nil {
			t.Fatal(err)
		}
		if len(id) != 64 {
			t.Fatalf("txid length = %d, want 64 hex chars", len(id))
		}
		if seen[id] {
			t.Fatal("duplicate txid")
		}
		seen[id] = true
	}
}

func TestPolicyEvaluation(t *testing.T) {
	tests := []struct {
		name   string
		policy Policy
		orgs   []string
		want   bool
	}{
		{"signedby hit", SignedBy("Org1MSP"), []string{"Org1MSP"}, true},
		{"signedby miss", SignedBy("Org1MSP"), []string{"Org2MSP"}, false},
		{"or any", Or(SignedBy("A"), SignedBy("B")), []string{"B"}, true},
		{"or none", Or(SignedBy("A"), SignedBy("B")), []string{"C"}, false},
		{"and all", And(SignedBy("A"), SignedBy("B")), []string{"A", "B"}, true},
		{"and partial", And(SignedBy("A"), SignedBy("B")), []string{"A"}, false},
		{"outof 2of3 ok", OutOf(2, SignedBy("A"), SignedBy("B"), SignedBy("C")), []string{"A", "C"}, true},
		{"outof 2of3 fail", OutOf(2, SignedBy("A"), SignedBy("B"), SignedBy("C")), []string{"C"}, false},
		{"outof zero", OutOf(0), nil, true},
		{"anyorg", AnyOrg([]string{"Org1", "Org2"}), []string{"Org2MSP"}, true},
		{"majority 2of3 ok", MajorityOrgs([]string{"A", "B", "C"}), []string{"AMSP", "CMSP"}, true},
		{"majority 2of3 fail", MajorityOrgs([]string{"A", "B", "C"}), []string{"AMSP"}, false},
		{"duplicates dont help", And(SignedBy("A"), SignedBy("B")), []string{"A", "A"}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.policy.Evaluate(tt.orgs); got != tt.want {
				t.Errorf("%s.Evaluate(%v) = %v, want %v", tt.policy, tt.orgs, got, tt.want)
			}
		})
	}
}

func TestPolicyString(t *testing.T) {
	p := OutOf(2, SignedBy("A"), SignedBy("B"))
	if p.String() != `OutOf(2, SignedBy("A"), SignedBy("B"))` {
		t.Errorf("String = %s", p)
	}
}

func mkResponse(t *testing.T, peer *identity.SigningIdentity, rwset, payload []byte) *Response {
	t.Helper()
	r := &Response{
		TxID:     "tx1",
		Status:   200,
		Payload:  payload,
		RWSet:    rwset,
		Endorser: peer.Serialize(),
	}
	sig, err := peer.Sign(r.SignedBytes())
	if err != nil {
		t.Fatal(err)
	}
	r.Signature = sig
	return r
}

func TestCheckEndorsements(t *testing.T) {
	ca1, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	ca2, err := identity.NewCA("Org2")
	if err != nil {
		t.Fatal(err)
	}
	msp := identity.NewMSP(ca1, ca2)
	p1, err := ca1.Enroll("peer1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ca2.Enroll("peer2", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}

	rws := []byte(`{"writes":[{"key":"k"}]}`)
	policy := And(SignedBy("Org1MSP"), SignedBy("Org2MSP"))

	t.Run("satisfied", func(t *testing.T) {
		resps := []*Response{mkResponse(t, p1, rws, nil), mkResponse(t, p2, rws, nil)}
		if err := CheckEndorsements(policy, msp, resps); err != nil {
			t.Errorf("CheckEndorsements: %v", err)
		}
	})
	t.Run("insufficient orgs", func(t *testing.T) {
		resps := []*Response{mkResponse(t, p1, rws, nil)}
		err := CheckEndorsements(policy, msp, resps)
		if !errors.Is(err, ErrPolicyNotSatisfied) {
			t.Errorf("err = %v, want ErrPolicyNotSatisfied", err)
		}
	})
	t.Run("no endorsements", func(t *testing.T) {
		if err := CheckEndorsements(policy, msp, nil); !errors.Is(err, ErrPolicyNotSatisfied) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("divergent rwsets", func(t *testing.T) {
		resps := []*Response{
			mkResponse(t, p1, rws, nil),
			mkResponse(t, p2, []byte(`{"writes":[{"key":"other"}]}`), nil),
		}
		if err := CheckEndorsements(policy, msp, resps); !errors.Is(err, ErrResponseMismatch) {
			t.Errorf("err = %v, want ErrResponseMismatch", err)
		}
	})
	t.Run("tampered signature", func(t *testing.T) {
		r := mkResponse(t, p1, rws, nil)
		r.Payload = []byte("tampered after signing")
		resps := []*Response{r, mkResponse(t, p2, rws, []byte("tampered after signing"))}
		if err := CheckEndorsements(policy, msp, resps); err == nil {
			t.Error("tampered endorsement accepted")
		}
	})
}

// SelectEndorsements verifies in order until the policy holds and returns
// only what it picked: never a second endorser of a covered org, never an
// endorsement that fails to resolve or verify, and no verification past the
// last pick. misses counts the ECDSA verifications each case may execute.
func TestSelectEndorsements(t *testing.T) {
	ca1, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	ca2, err := identity.NewCA("Org2")
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := identity.NewCA("OrgZ")
	if err != nil {
		t.Fatal(err)
	}
	enroll := func(ca *identity.CA, name string) *identity.SigningIdentity {
		id, err := ca.Enroll(name, identity.RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	rws := []byte(`{"writes":[{"key":"k"}]}`)
	a1 := mkResponse(t, enroll(ca1, "peerA1"), rws, nil)
	b1 := mkResponse(t, enroll(ca1, "peerB1"), rws, nil)
	a2 := mkResponse(t, enroll(ca2, "peerA2"), rws, nil)
	unknown := mkResponse(t, enroll(stranger, "peerZ"), rws, nil)
	divergent := mkResponse(t, enroll(ca2, "peerB2"), []byte(`{"writes":[{"key":"other"}]}`), nil)
	flipped := *a1
	flipped.Signature = append([]byte(nil), a1.Signature...)
	flipped.Signature[len(flipped.Signature)-1] ^= 1
	bad := &flipped

	org1, both := SignedBy("Org1MSP"), And(SignedBy("Org1MSP"), SignedBy("Org2MSP"))
	for _, tc := range []struct {
		name    string
		policy  Policy
		group   []*Response
		want    []*Response
		wantErr error
		misses  int
	}{
		{"first satisfying endorsement", org1, []*Response{a1, b1, a2}, []*Response{a1}, nil, 1},
		{"bad signature skipped", org1, []*Response{bad, b1}, []*Response{b1}, nil, 2},
		{"unknown CA skipped unverified", org1, []*Response{unknown, a1}, []*Response{a1}, nil, 1},
		{"same-org duplicate skipped unverified", both, []*Response{a1, b1, a2}, []*Response{a1, a2}, nil, 2},
		{"bad then same-org stand-in", both, []*Response{bad, a2, b1}, []*Response{a2, b1}, nil, 3},
		{"divergent group", org1, []*Response{a1, divergent}, nil, ErrResponseMismatch, 0},
		{"unsatisfiable", both, []*Response{a1, b1, bad, unknown}, nil, ErrPolicyNotSatisfied, 1},
		{"empty group", org1, nil, nil, ErrPolicyNotSatisfied, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			misses := 0
			got, err := SelectEndorsements(tc.policy, identity.NewMSP(ca1, ca2), tc.group, func() { misses++ })
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("picked %d endorsements, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("pick %d is %s, want %s", i, got[i].Endorser, tc.want[i].Endorser)
				}
			}
			if misses != tc.misses {
				t.Errorf("%d signatures verified, want %d", misses, tc.misses)
			}
		})
	}
}

func TestProposalSignedBytesStable(t *testing.T) {
	p := Proposal{TxID: "t", Chaincode: "cc", Function: "set"}
	a := p.SignedBytes()
	p.Signature = []byte("sig")
	b := p.SignedBytes()
	if string(a) != string(b) {
		t.Error("SignedBytes covers the signature field")
	}
	p.Function = "get"
	if string(a) == string(p.SignedBytes()) {
		t.Error("SignedBytes ignores content")
	}
}

// Two results that split the same bytes differently between rwset and payload
// are different results: the digest and the agreement check both respect the
// field boundary. sha256(rwset ‖ payload) — the pre-fix formula — cannot tell
// them apart.
func TestResultDigestRespectsFieldBoundaries(t *testing.T) {
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	msp := identity.NewMSP(ca)
	p1, err := ca.Enroll("peer1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ca.Enroll("peer2", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	a := mkResponse(t, p1, []byte("ab"), []byte("c"))
	b := mkResponse(t, p2, []byte("a"), []byte("bc"))
	if a.Digest() == b.Digest() {
		t.Fatal(`("ab","c") and ("a","bc") share a digest`)
	}
	if a.Digest() != mkResponse(t, p2, []byte("ab"), []byte("c")).Digest() {
		t.Fatal("equal results from different endorsers differ in digest")
	}
	err = CheckEndorsements(SignedBy("Org1MSP"), msp, []*Response{a, b})
	if !errors.Is(err, ErrResponseMismatch) {
		t.Fatalf("err = %v, want ErrResponseMismatch", err)
	}
}

// Revocation beats both caches: an endorsement whose endorser identity is
// interned and whose exact (certificate, message, signature) triple is in the
// signature cache is still rejected by the commit-time check the moment the
// endorser is revoked.
func TestRevokedEndorserRejectedWithWarmCaches(t *testing.T) {
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	msp := identity.NewMSP(ca)
	peer, err := ca.Enroll("peer1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	policy := SignedBy("Org1MSP")
	resps := []*Response{mkResponse(t, peer, []byte("rws"), nil)}
	for i := 0; i < 2; i++ { // gateway check, then commit check: second is all hits
		if err := CheckEndorsements(policy, msp, resps); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
	}
	if ids, sigs := msp.IdentityStats(), msp.VerifyCache().Stats(); ids.Hits == 0 || sigs.Hits == 0 {
		t.Fatalf("caches not warm: identities %+v, signatures %+v", ids, sigs)
	}
	ca.Revoke("peer1")
	if err := CheckEndorsements(policy, msp, resps); !errors.Is(err, identity.ErrRevoked) {
		t.Fatalf("after revoke: err = %v, want ErrRevoked", err)
	}
}

// Signing preimages are allocated once, at exactly their final size, with
// every field counted.
func TestSignedBytesAllocateExactly(t *testing.T) {
	long := func(n int) []byte { return make([]byte, n) }
	r := &Response{
		TxID: "tx1", Status: 500, Message: string(long(300)),
		Payload: long(400), RWSet: long(900), Events: long(350), Endorser: long(700),
	}
	p := &Proposal{
		TxID: "tx1", ChannelID: "ch", Chaincode: "cc", Function: "set",
		Args: [][]byte{long(500), long(200)}, Creator: long(700), Timestamp: time.Now(),
	}
	for name, encode := range map[string]func() []byte{
		"Response":      r.SignedBytes,
		"zero Response": (&Response{}).SignedBytes,
		"Proposal":      p.SignedBytes,
		"zero Proposal": (&Proposal{}).SignedBytes,
	} {
		if out := encode(); cap(out) != len(out) {
			t.Errorf("%s.SignedBytes: %d bytes in a buffer of %d, want an exact fit", name, len(out), cap(out))
		}
		if allocs := testing.AllocsPerRun(50, func() { encode() }); allocs != 1 {
			t.Errorf("%s.SignedBytes: %.0f allocations, want 1", name, allocs)
		}
	}
}
