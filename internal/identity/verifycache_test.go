package identity

import (
	"crypto/sha256"
	"errors"
	"sync"
	"testing"
)

func newTestIdentity(t *testing.T, name string) (*SigningIdentity, *Identity) {
	t.Helper()
	ca, err := NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ca.Enroll(name, RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Identity()
}

func TestVerifyCachedHitSkipsWorkAndCharge(t *testing.T) {
	signer, id := newTestIdentity(t, "alice")
	cache := NewVerifyCache(64)
	msg := []byte("the message")
	sig, err := signer.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	charges := 0
	onMiss := func() { charges++ }

	if err := id.VerifyCached(cache, sha256.Sum256(msg), sig, onMiss); err != nil {
		t.Fatalf("first verify: %v", err)
	}
	if charges != 1 {
		t.Fatalf("first verify charged %d times, want 1", charges)
	}
	// Second verification of the identical triple is a cache hit: no ECDSA
	// work, and crucially no modeled-hardware charge either.
	if err := id.VerifyCached(cache, sha256.Sum256(msg), sig, onMiss); err != nil {
		t.Fatalf("cached verify: %v", err)
	}
	if charges != 1 {
		t.Fatalf("cached verify charged (total %d), want no new charge", charges)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestVerifyCachedFailureIsNotCached(t *testing.T) {
	signer, id := newTestIdentity(t, "alice")
	cache := NewVerifyCache(64)
	msg := []byte("the message")
	sig, err := signer.Sign([]byte("a different message"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := id.VerifyCached(cache, sha256.Sum256(msg), sig, nil); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("attempt %d: err = %v, want ErrBadSignature", i, err)
		}
	}
	if st := cache.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("failed verifications polluted the cache: %+v", st)
	}
}

func TestVerifyCachedKeyBindsIdentity(t *testing.T) {
	signerA, idA := newTestIdentity(t, "alice")
	_, idB := newTestIdentity(t, "bob")
	cache := NewVerifyCache(64)
	msg := []byte("shared message")
	sig, err := signerA.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := idA.VerifyCached(cache, sha256.Sum256(msg), sig, nil); err != nil {
		t.Fatal(err)
	}
	// Bob presenting Alice's (msg, sig) must not hit Alice's cache entry.
	if err := idB.VerifyCached(cache, sha256.Sum256(msg), sig, nil); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("cross-identity verify = %v, want ErrBadSignature", err)
	}
}

func TestVerifyCacheEvictsLRU(t *testing.T) {
	signer, id := newTestIdentity(t, "alice")
	cache := NewVerifyCache(2)
	sign := func(s string) ([]byte, []byte) {
		msg := []byte(s)
		sig, err := signer.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		return msg, sig
	}
	m1, s1 := sign("one")
	m2, s2 := sign("two")
	m3, s3 := sign("three")
	for _, p := range []struct{ m, s []byte }{{m1, s1}, {m2, s2}} {
		if err := id.VerifyCached(cache, sha256.Sum256(p.m), p.s, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Touch m1 so m2 becomes least recently used, then overflow.
	if err := id.VerifyCached(cache, sha256.Sum256(m1), s1, nil); err != nil {
		t.Fatal(err)
	}
	if err := id.VerifyCached(cache, sha256.Sum256(m3), s3, nil); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want capacity 2", st.Entries)
	}
	// m2 was LRU when m3 arrived, so it must miss; re-inserting it then
	// evicts m1, while m3 (still recent) survives both turnovers.
	charges := 0
	if err := id.VerifyCached(cache, sha256.Sum256(m2), s2, func() { charges++ }); err != nil {
		t.Fatal(err)
	}
	if charges != 1 {
		t.Fatal("evicted entry unexpectedly still cached")
	}
	if err := id.VerifyCached(cache, sha256.Sum256(m3), s3, func() { charges++ }); err != nil {
		t.Fatal(err)
	}
	if charges != 1 {
		t.Fatal("recently used entry was evicted")
	}
}

func TestVerifyCachedNilCacheDegradesToVerify(t *testing.T) {
	signer, id := newTestIdentity(t, "alice")
	msg := []byte("msg")
	sig, err := signer.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	charges := 0
	for i := 0; i < 2; i++ {
		if err := id.VerifyCached(nil, sha256.Sum256(msg), sig, func() { charges++ }); err != nil {
			t.Fatal(err)
		}
	}
	if charges != 2 {
		t.Fatalf("nil cache charged %d times, want every call", charges)
	}
}

func TestVerifyCacheConcurrent(t *testing.T) {
	signer, id := newTestIdentity(t, "alice")
	cache := NewVerifyCache(8)
	msgs := make([][]byte, 16)
	sigs := make([][]byte, 16)
	for i := range msgs {
		msgs[i] = []byte{byte(i)}
		sig, err := signer.Sign(msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				j := (g + i) % len(msgs)
				if err := id.VerifyCached(cache, sha256.Sum256(msgs[j]), sigs[j], nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := cache.Stats(); st.Entries > 8 {
		t.Fatalf("cache exceeded capacity: %+v", st)
	}
}

func TestMSPCarriesVerifyCache(t *testing.T) {
	ca, err := NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	msp := NewMSP(ca)
	if msp.VerifyCache() == nil {
		t.Fatal("MSP has no verification cache")
	}
}
