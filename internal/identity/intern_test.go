package identity

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"
)

// enrollInterned enrolls name under ca and resolves it once through msp, so
// the identity is in the table when the caller starts changing the world.
func enrollInterned(t *testing.T, ca *CA, msp *MSP, name string) []byte {
	t.Helper()
	sid, err := ca.Enroll(name, RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	raw := sid.Serialize()
	first, err := msp.Deserialize(raw)
	if err != nil {
		t.Fatalf("first Deserialize: %v", err)
	}
	again, err := msp.Deserialize(raw)
	if err != nil {
		t.Fatalf("second Deserialize: %v", err)
	}
	if first != again {
		t.Fatal("second Deserialize did not return the interned identity")
	}
	return raw
}

func TestInternedIdentityRevokedOnNextCall(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	raw := enrollInterned(t, ca, msp, "alice")
	ca.Revoke("alice")
	if _, err := msp.Deserialize(raw); !errors.Is(err, ErrRevoked) {
		t.Fatalf("Deserialize after revoke = %v, want ErrRevoked", err)
	}
}

func TestInternedIdentityExpiresOnNextCall(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	raw := enrollInterned(t, ca, msp, "alice")
	ca.now = func() time.Time { return time.Now().Add(6 * 365 * 24 * time.Hour) }
	if _, err := msp.Deserialize(raw); !errors.Is(err, ErrCertExpired) {
		t.Fatalf("Deserialize past NotAfter = %v, want ErrCertExpired", err)
	}
}

func TestAddCAForgetsInternedIdentities(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	raw := enrollInterned(t, ca, msp, "alice")
	// A different CA takes over the org: certificates the old one issued no
	// longer chain to anything trusted, interned or not.
	msp.AddCA(newTestCA(t, "Org1"))
	if _, err := msp.Deserialize(raw); !errors.Is(err, ErrCertNotSignedByCA) {
		t.Fatalf("Deserialize after CA replacement = %v, want ErrCertNotSignedByCA", err)
	}
	if st := msp.IdentityStats(); st.Entries != 0 {
		t.Fatalf("table holds %d entries after CA replacement, want 0", st.Entries)
	}
}

// forgedIdentity serializes a certificate for Org1 signed by a key that is
// not the trusted Org1 CA's.
func forgedIdentity(t *testing.T) []byte {
	t.Helper()
	rogue := newTestCA(t, "Org1")
	sid, err := rogue.Enroll("mallory", RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	return sid.Serialize()
}

func TestFailedResolutionsAreNeverInterned(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	stranger := newTestCA(t, "Org9")
	sid, err := stranger.Enroll("eve", RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	revoked, err := ca.Enroll("gone", RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	ca.Revoke("gone")

	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"unknown org", sid.Serialize(), ErrUnknownOrg},
		{"malformed", []byte(`{"mspid":"Org1MSP","certDer":"aGk="}`), ErrMalformedIdentity},
		{"not json", []byte("plain"), ErrMalformedIdentity},
		{"wrongly signed", forgedIdentity(t), ErrCertNotSignedByCA},
		{"revoked at first sight", revoked.Serialize(), ErrRevoked},
	}
	for _, tc := range cases {
		for i := 0; i < 3; i++ {
			if _, err := msp.Deserialize(tc.raw); !errors.Is(err, tc.want) {
				t.Errorf("%s, call %d: err = %v, want %v", tc.name, i, err, tc.want)
			}
		}
	}
	st := msp.IdentityStats()
	if st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("failed resolutions touched the table: %+v", st)
	}
	if want := uint64(3 * len(cases)); st.Misses != want {
		t.Fatalf("misses = %d, want %d: every failure must be re-evaluated", st.Misses, want)
	}
	// Trusting the stranger's CA later makes its identity resolvable: the
	// earlier failure left nothing behind.
	msp.AddCA(stranger)
	if _, err := msp.Deserialize(sid.Serialize()); err != nil {
		t.Fatalf("Deserialize after AddCA: %v", err)
	}
}

// issueRaw signs a certificate for subject under ca with a caller-held key
// (Enroll always fills in an OU and generates a key pair per identity) and
// returns its serialized identity.
func issueRaw(t *testing.T, ca *CA, key *ecdsa.PrivateKey, serial int64, subject pkix.Name) []byte {
	t.Helper()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject:      subject,
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(serializedIdentity{MSPID: ca.org + "MSP", CertDER: der})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestIdentityTableIsBounded(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	// One key pair, many certificates: issuing identityTableCap+1 distinct
	// identities through Enroll would spend most of the test generating keys.
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i <= identityTableCap; i++ {
		raw := issueRaw(t, ca, key, int64(1000+i), pkix.Name{
			CommonName:         fmt.Sprintf("sensor-%d", i),
			Organization:       []string{"Org1"},
			OrganizationalUnit: []string{"client"},
		})
		if i == 0 {
			first = raw
		}
		if _, err := msp.Deserialize(raw); err != nil {
			t.Fatalf("identity %d: %v", i, err)
		}
	}
	if st := msp.IdentityStats(); st.Entries != identityTableCap {
		t.Fatalf("entries = %d after cap+1 identities, want %d", st.Entries, identityTableCap)
	}
	// The evicted (least recently used) identity still resolves — by the
	// full path.
	before := msp.IdentityStats().Misses
	if _, err := msp.Deserialize(first); err != nil {
		t.Fatal(err)
	}
	if msp.IdentityStats().Misses != before+1 {
		t.Fatal("oldest identity was not evicted")
	}
}

// TestSubjectRendersRawOU pins the record-facing subject string: it carries
// the certificate's OU verbatim, so a certificate without one renders
// "OU=" while still classifying as a client.
func TestSubjectRendersRawOU(t *testing.T) {
	ca := newTestCA(t, "Org1")
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	raw := issueRaw(t, ca, key, 77, pkix.Name{CommonName: "bare", Organization: []string{"Org1"}})
	id, err := NewMSP(ca).Deserialize(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := id.Subject(), "x509::CN=bare,O=Org1,OU="; got != want {
		t.Errorf("Subject = %q, want %q", got, want)
	}
	if id.Role() != RoleClient || id.MSPID() != "Org1MSP" {
		t.Errorf("role = %v, mspid = %q", id.Role(), id.MSPID())
	}
}

func TestWarmDeserializeAllocations(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	raw := enrollInterned(t, ca, msp, "alice")
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := msp.Deserialize(raw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm Deserialize allocates %.0f objects per call, want <= 1", allocs)
	}
}

// TestInternConcurrentWithRevokeAndAddCA hammers resolution against
// revocation and trust-set changes. Under -race it checks the locking; in
// any mode it checks that no resolver ever sees a wrong verdict: alice is
// never revoked and her CA stays trusted, bob's verdict may flip to revoked
// but to nothing else.
func TestInternConcurrentWithRevokeAndAddCA(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	alice := enrollInterned(t, ca, msp, "alice")
	bob := enrollInterned(t, ca, msp, "bob")

	others := []*CA{newTestCA(t, "Org2"), newTestCA(t, "Org3"), newTestCA(t, "Org4")}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if id, err := msp.Deserialize(alice); err != nil || id.ID() != "alice" {
					t.Errorf("alice: id = %v, err = %v", id, err)
					return
				}
				if _, err := msp.Deserialize(bob); err != nil && !errors.Is(err, ErrRevoked) {
					t.Errorf("bob: err = %v, want nil or ErrRevoked", err)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			// Each AddCA drops the table under the resolvers' feet.
			msp.AddCA(others[i%len(others)])
		}
	}()
	go func() {
		defer wg.Done()
		ca.Revoke("bob")
	}()
	wg.Wait()
	if _, err := msp.Deserialize(bob); !errors.Is(err, ErrRevoked) {
		t.Fatalf("bob after revoke = %v, want ErrRevoked", err)
	}
}

// FuzzDeserialize feeds arbitrary bytes to the MSP: no panic, failures are
// one of the package's sentinels, and asking twice gives the same verdict
// (the intern table must never change an answer).
func FuzzDeserialize(f *testing.F) {
	ca, err := NewCA("Org1")
	if err != nil {
		f.Fatal(err)
	}
	sid, err := ca.Enroll("seed", RoleClient)
	if err != nil {
		f.Fatal(err)
	}
	msp := NewMSP(ca)
	valid := sid.Serialize()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"mspid":"Org1MSP","certDer":"aGk="}`))
	f.Add([]byte(`{}`))
	f.Add([]byte{})
	sentinels := []error{
		ErrMalformedIdentity, ErrUnknownOrg, ErrCertNotSignedByCA, ErrCertExpired, ErrRevoked,
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		id1, err1 := msp.Deserialize(raw)
		id2, err2 := msp.Deserialize(raw)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("verdict changed between calls: %v then %v", err1, err2)
		}
		if err1 == nil {
			if id1 != id2 {
				t.Fatal("accepted identity was not interned")
			}
			return
		}
		for _, s := range sentinels {
			if errors.Is(err1, s) {
				if !errors.Is(err2, s) {
					t.Fatalf("verdict changed between calls: %v then %v", err1, err2)
				}
				return
			}
		}
		t.Fatalf("unstructured error: %v", err1)
	})
}
