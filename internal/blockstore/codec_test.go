package blockstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/codec"
)

func fullEnvelope(txID string) Envelope {
	return Envelope{
		TxID:      txID,
		ChannelID: "provchannel",
		Chaincode: "hyperprov",
		Function:  "set",
		Args:      [][]byte{[]byte("key"), []byte("value")},
		Creator:   []byte("creator-identity"),
		Timestamp: time.Unix(1700000123, 456789).UTC(),
		RWSet:     []byte("rwset-bytes"),
		Response:  []byte("response-bytes"),
		Events:    []byte("event-bytes"),
		Endorsements: []Endorsement{
			{Endorser: []byte("peer0-id"), Signature: []byte("peer0-sig")},
			{Endorser: []byte("peer1-id"), Signature: []byte("peer1-sig")},
		},
		Signature: []byte("client-sig"),
	}
}

// TestBlockCodecRoundTrip pins the canonical encoding end to end: every
// field survives, decoded envelopes carry their wire bytes as the cached
// canonical encoding, and re-encoding is byte-identical.
func TestBlockCodecRoundTrip(t *testing.T) {
	envs := []Envelope{fullEnvelope("tx-a"), fullEnvelope("tx-b")}
	b, err := NewBlock(7, []byte("prev-hash"), envs)
	if err != nil {
		t.Fatal(err)
	}
	b.TxValidation = []ValidationCode{TxValid, TxMVCCConflict}

	raw := MarshalBlock(b)
	got, err := UnmarshalBlock(raw)
	if err != nil {
		t.Fatalf("UnmarshalBlock: %v", err)
	}
	if got.Header.Number != 7 || string(got.Header.PreviousHash) != "prev-hash" {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if !bytes.Equal(got.Header.DataHash, b.Header.DataHash) {
		t.Fatal("data hash mismatch")
	}
	if len(got.Envelopes) != 2 || len(got.TxValidation) != 2 || got.TxValidation[1] != TxMVCCConflict {
		t.Fatalf("contents mismatch: %d envs, %v", len(got.Envelopes), got.TxValidation)
	}
	e := &got.Envelopes[0]
	want := &envs[0]
	if e.TxID != want.TxID || e.ChannelID != want.ChannelID || e.Chaincode != want.Chaincode ||
		e.Function != want.Function || !e.Timestamp.Equal(want.Timestamp) {
		t.Fatalf("envelope scalar mismatch: %+v", e)
	}
	if len(e.Args) != 2 || !bytes.Equal(e.Args[1], []byte("value")) ||
		!bytes.Equal(e.RWSet, want.RWSet) || !bytes.Equal(e.Signature, want.Signature) {
		t.Fatalf("envelope bytes mismatch: %+v", e)
	}
	if len(e.Endorsements) != 2 || !bytes.Equal(e.Endorsements[1].Signature, []byte("peer1-sig")) {
		t.Fatalf("endorsements mismatch: %+v", e.Endorsements)
	}
	// Decoded blocks must pass the integrity audit (the audit re-encodes
	// from fields, so this also proves decode→encode is canonical).
	if err := got.VerifyData(); err != nil {
		t.Fatalf("VerifyData on decoded block: %v", err)
	}
	if !bytes.Equal(MarshalBlock(got), raw) {
		t.Fatal("re-encoding a decoded block is not byte-identical")
	}
}

// TestSignedBytesPrefixProperty pins that a sealed envelope's cached
// signing preimage equals the fresh encoding of the same fields — the
// property that lets validators verify against bin[:sigOff] directly.
func TestSignedBytesPrefixProperty(t *testing.T) {
	e := fullEnvelope("tx-p")
	fresh := e.SignedBytes() // no cache yet: fresh core encode
	e.Seal()
	if !bytes.Equal(e.SignedBytes(), fresh) {
		t.Fatal("sealed SignedBytes differs from fresh encoding")
	}
	raw, _ := e.Marshal()
	dec, err := UnmarshalEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.SignedBytes(), fresh) {
		t.Fatal("decoded SignedBytes differs from fresh encoding")
	}
}

// SignedDigest is sha256(SignedBytes()) however the envelope came to be —
// assembled, sealed, or decoded — and for the golden envelope it is the digest
// computed at commit 1486aeb, before the digest became the signing primitive.
func TestEnvelopeSignedDigest(t *testing.T) {
	golden := Envelope{TxID: "tx-golden", ChannelID: "ch", Chaincode: "provenance", Function: "set",
		Args: [][]byte{[]byte("k"), nil, []byte("v")}, Creator: []byte("creator-identity"),
		Timestamp: time.Unix(1700000000, 123456789), RWSet: []byte{1, 2, 3}, Response: []byte("payload"),
		Endorsements: []Endorsement{{Endorser: []byte("endorser-identity"), Signature: []byte("endorsement-signature")}}}
	const goldenDigest = "5018ee92f8a73b09dc3b3674df81a8d3c5b278ea83c4b1079f65520bd1aff993"
	if got := golden.SignedDigest(); hex.EncodeToString(got[:]) != goldenDigest {
		t.Errorf("golden envelope digest = %x, want %s", got, goldenDigest)
	}
	for name, e := range map[string]Envelope{
		"zero": {}, "golden": golden, "full": fullEnvelope("tx-d"),
		"nil vs empty": {Args: [][]byte{nil, {}}, Creator: []byte{}, Endorsements: []Endorsement{{}}},
	} {
		want := sha256.Sum256(e.SignedBytes())
		if got := e.SignedDigest(); got != want {
			t.Errorf("%s, assembled: SignedDigest %x, sha256(SignedBytes) %x", name, got, want)
		}
		e.Seal()
		if got := e.SignedDigest(); got != want {
			t.Errorf("%s, sealed: SignedDigest %x, want %x", name, got, want)
		}
		dec, err := UnmarshalEnvelope(e.bin)
		if err != nil {
			t.Fatal(err)
		}
		if got := dec.SignedDigest(); got != want {
			t.Errorf("%s, decoded: SignedDigest %x, want %x", name, got, want)
		}
	}
}

// SealSigned leaves the envelope exactly as signing SignedBytes and then
// sealing would — same signature input, same cached bytes — in one encoding.
func TestSealSigned(t *testing.T) {
	want := fullEnvelope("tx-s")
	want.Signature = bytes.Repeat([]byte{0x5a}, 71)
	want.Seal()

	e := fullEnvelope("tx-s")
	e.Signature = nil
	var signed [sha256.Size]byte
	err := e.SealSigned(func(digest [sha256.Size]byte) ([]byte, error) {
		signed = digest
		return want.Signature, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if signed != sha256.Sum256(want.SignedBytes()) {
		t.Error("the signer was not handed sha256(SignedBytes)")
	}
	if !bytes.Equal(e.bin, want.bin) || e.sigOff != want.sigOff || !bytes.Equal(e.Signature, want.Signature) {
		t.Error("SealSigned and sign-then-Seal cache different encodings")
	}
	if e.Seal() != len(want.bin) {
		t.Error("sealing a SealSigned envelope re-encoded it")
	}

	failing := fullEnvelope("tx-f")
	if err := failing.SealSigned(func([sha256.Size]byte) ([]byte, error) { return nil, errors.New("no key") }); err == nil {
		t.Error("a failed signature was swallowed")
	}
	if _, sealed := failing.EncodedLen(); sealed {
		t.Error("an envelope whose signature failed was sealed")
	}
}

// TestBlockCodecStructuredErrors verifies damaged inputs fail with the
// codec sentinels, never panics or unstructured errors.
func TestBlockCodecStructuredErrors(t *testing.T) {
	b, err := NewBlock(0, nil, []Envelope{fullEnvelope("tx")})
	if err != nil {
		t.Fatal(err)
	}
	good := MarshalBlock(b)

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := UnmarshalBlock(flipped); !errors.Is(err, codec.ErrChecksum) && !errors.Is(err, codec.ErrMalformed) && !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("flipped byte: unstructured error %v", err)
	}
	if _, err := UnmarshalBlock(good[:len(good)/2]); !errors.Is(err, codec.ErrChecksum) && !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("truncated: unstructured error %v", err)
	}
	if _, err := UnmarshalBlock([]byte{}); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("empty: %v", err)
	}
	trailing := append(append([]byte(nil), good...), 0)
	if _, err := UnmarshalBlock(trailing); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Unsupported version must be rejected (CRC recomputed so only the
	// version check can fire).
	verBumped := append([]byte(nil), good[:len(good)-4]...)
	verBumped[4] = 99
	verBumped = codec.AppendChecksum(verBumped, 0)
	if _, err := UnmarshalBlock(verBumped); !errors.Is(err, codec.ErrMalformed) {
		t.Fatalf("version 99: want ErrMalformed, got %v", err)
	}
}

// TestHeaderHashStability pins that header hashing is content-addressed
// and signature-independent of field mutation.
func TestHeaderHashStability(t *testing.T) {
	h := Header{Number: 3, PreviousHash: []byte("prev"), DataHash: []byte("data")}
	h2 := Header{Number: 3, PreviousHash: []byte("prev"), DataHash: []byte("data")}
	if !bytes.Equal(h.Hash(), h2.Hash()) {
		t.Fatal("identical headers hash differently")
	}
	h2.Number = 4
	if bytes.Equal(h.Hash(), h2.Hash()) {
		t.Fatal("different headers hash identically")
	}
}

// TestMarshalBlockDoesNotMutate verifies encoding a shared block performs
// no caching side effects (the race-safety contract for concurrent
// persist/gossip encoders).
func TestMarshalBlockDoesNotMutate(t *testing.T) {
	e := fullEnvelope("tx-shared")
	b := &Block{Header: Header{Number: 1}, Envelopes: []Envelope{e}}
	// Envelope was never sealed: MarshalBlock must encode to scratch.
	raw1 := MarshalBlock(b)
	if b.Envelopes[0].bin != nil {
		t.Fatal("MarshalBlock cached an encoding on a shared envelope")
	}
	raw2 := MarshalBlock(b)
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("MarshalBlock is not deterministic")
	}
}

// Encoders that start from nothing allocate their buffer once, at exactly
// its final size: the bytes outlive the call (cached on envelopes, aliased by
// cloned blocks), and spare capacity would be retained with them.
func TestEncodersAllocateExactly(t *testing.T) {
	big := fullEnvelope("tx-sized")
	big.Creator = bytes.Repeat([]byte("c"), 700)
	big.RWSet = bytes.Repeat([]byte("r"), 900)
	big.Args = [][]byte{bytes.Repeat([]byte("a"), 300)}
	sealed := big
	sealed.Seal()
	blocks := map[string]*Block{
		"sealed": {
			Header:       Header{Number: 300, PreviousHash: make([]byte, 32), DataHash: make([]byte, 32)},
			Envelopes:    []Envelope{sealed, sealed, sealed},
			TxValidation: []ValidationCode{TxValid, TxMVCCConflict, TxValid},
		},
		"unsealed": {Header: Header{Number: 1}, Envelopes: []Envelope{big, fullEnvelope("tx-small")}},
		"empty":    {},
	}
	encoders := map[string]func() []byte{
		"Envelope.SignedBytes": func() []byte { return big.SignedBytes() },
		"Envelope.Marshal":     func() []byte { b, _ := big.Marshal(); return b },
		"Envelope.Seal":        func() []byte { e := big; e.Seal(); return e.bin },
		"zero Envelope":        func() []byte { b, _ := (&Envelope{}).Marshal(); return b },
	}
	for name, blk := range blocks {
		encoders["MarshalBlock "+name] = func() []byte { return MarshalBlock(blk) }
	}
	for name, encode := range encoders {
		if out := encode(); cap(out) != len(out) {
			t.Errorf("%s: %d bytes in a buffer of %d, want an exact fit", name, len(out), cap(out))
		}
	}
	for _, name := range []string{"Envelope.SignedBytes", "Envelope.Marshal", "MarshalBlock sealed"} {
		if allocs := testing.AllocsPerRun(50, func() { encoders[name]() }); allocs != 1 {
			t.Errorf("%s: %.0f allocations per call, want 1", name, allocs)
		}
	}
}
