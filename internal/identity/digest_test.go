package identity

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"testing"
)

// A fixed P-256 key, a fixed signing preimage (an endorser.Response's
// SignedBytes), and the signature commit 1486aeb's Sign(preimage) produced
// with that key — before the digest became the signing primitive.
const (
	goldenKeyDER   = "30770201010420f0f26d828d172bff962c50678c11cfd0b14356cddf3f539670679bcfbeeee752a00a06082a8648ce3d030107a144034200049c13f1b1b40bbfa053c8f19176651c30683dcb99fd3369f1b5460ad3741119ab0fa275346da2bbc7950ae0e479282c889dac708d7906f1ad5beae9cc2d90b825"
	goldenPreimage = "48505253010974782d676f6c64656e900300077061796c6f6164030102030011656e646f727365722d6964656e74697479"
	goldenSig      = "3045022041926568c94b091fe5944375c4476946193312f6a960ad70c2a76a9b944d147f022100d485209fbebb18f18cf865792cd5fbdf5bb690286aaba6e708b8d5b7fa821962"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Signatures are over the same digests as before: one made by the old
// Sign(preimage) verifies through the digest path, and one made by SignDigest
// verifies the way the old Verify did — plain ECDSA over sha256(preimage).
func TestDigestPathInteroperatesWithMessagePath(t *testing.T) {
	key, err := x509.ParseECPrivateKey(unhex(t, goldenKeyDER))
	if err != nil {
		t.Fatal(err)
	}
	signer, id := &SigningIdentity{key: key}, &Identity{pub: &key.PublicKey}
	msg, digest := unhex(t, goldenPreimage), sha256.Sum256(unhex(t, goldenPreimage))

	if err := id.VerifyDigest(digest, unhex(t, goldenSig)); err != nil {
		t.Errorf("old signature through VerifyDigest: %v", err)
	}
	if err := id.VerifyCached(NewVerifyCache(4), digest, unhex(t, goldenSig), nil); err != nil {
		t.Errorf("old signature through VerifyCached: %v", err)
	}
	if err := id.Verify(msg, unhex(t, goldenSig)); err != nil {
		t.Errorf("old signature through Verify: %v", err)
	}
	sig, err := signer.SignDigest(digest)
	if err != nil {
		t.Fatal(err)
	}
	if !ecdsa.VerifyASN1(&key.PublicKey, digest[:], sig) {
		t.Error("SignDigest's signature does not verify as ECDSA over sha256(preimage)")
	}
	if err := id.Verify(msg, sig); err != nil {
		t.Errorf("SignDigest's signature through Verify: %v", err)
	}
	digest[0] ^= 1
	if err := id.VerifyDigest(digest, sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("signature over another digest: err = %v, want ErrBadSignature", err)
	}
}

// ECDSAOps counts executed operations, successful or not, and nothing a cache
// answered.
func TestECDSAOpsCountsExecutedWork(t *testing.T) {
	signer, id := newTestIdentity(t, "alice")
	cache := NewVerifyCache(4)
	digest := sha256.Sum256([]byte("counted"))
	signs0, verifies0 := ECDSAOps()
	sig, err := signer.SignDigest(digest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // one miss, two hits
		if err := id.VerifyCached(cache, digest, sig, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := id.VerifyCached(cache, sha256.Sum256([]byte("forged")), sig, nil); err == nil {
		t.Fatal("forged digest verified")
	}
	signs, verifies := ECDSAOps()
	if signs-signs0 != 1 || verifies-verifies0 != 2 {
		t.Errorf("executed %d signs, %d verifies; want 1 and 2", signs-signs0, verifies-verifies0)
	}
}
