package blockstore

import (
	"crypto/sha256"
	"errors"
	"reflect"
	"testing"

	"github.com/hyperprov/hyperprov/internal/codec"
)

// structuredCodecError reports whether err is one of the codec sentinels —
// the only failures the block and envelope decoders are allowed to return
// for arbitrary input.
func structuredCodecError(err error) bool {
	return errors.Is(err, codec.ErrTruncated) ||
		errors.Is(err, codec.ErrMalformed) ||
		errors.Is(err, codec.ErrChecksum)
}

// FuzzDecodeBlockCodec throws arbitrary bytes at the binary block and
// envelope decoders — the exact bytes that arrive over gossip/transport
// frames and from ledger files. The contract under hostile input: no
// panic, no unbounded allocation, every failure a structured codec sentinel
// (so the transport can drop the connection and the file store can
// distinguish torn tails from corruption) — and every accepted input
// re-encodes and re-decodes to an identical value.
func FuzzDecodeBlockCodec(f *testing.F) {
	empty, err := NewBlock(0, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(MarshalBlock(empty))

	full, err := NewBlock(7, []byte("prev-hash"),
		[]Envelope{fullEnvelope("tx-a"), fullEnvelope("tx-b")})
	if err != nil {
		f.Fatal(err)
	}
	full.TxValidation = []ValidationCode{TxValid, TxMVCCConflict}
	good := MarshalBlock(full)
	f.Add(good)

	// Damaged variants: flipped byte (CRC catches), truncation at several
	// depths, bad magic, stray tail, bare magic, junk.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(good[:len(good)-3])
	f.Add(good[:len(good)/2])
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	f.Add(append(append([]byte(nil), good...), 0x00))
	f.Add([]byte("HPBK"))
	f.Add([]byte("HPEV"))
	f.Add([]byte{})

	// JSON is not a block or envelope encoding: must-reject input.
	f.Add([]byte(`{"header":{"number":7},"envelopes":[{"txId":"tx-a"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := UnmarshalBlock(data); err != nil {
			if !structuredCodecError(err) {
				t.Fatalf("unstructured error from UnmarshalBlock: %v", err)
			}
		} else {
			rt, err := UnmarshalBlock(MarshalBlock(b))
			if err != nil {
				t.Fatalf("re-decode of re-encoded block failed: %v", err)
			}
			if !reflect.DeepEqual(b, rt) {
				t.Fatalf("block round-trip mismatch:\n got %#v\nwant %#v", rt, b)
			}
		}

		// The envelope decoder under the same bytes.
		e, err := UnmarshalEnvelope(data)
		if err != nil {
			if !structuredCodecError(err) {
				t.Fatalf("unstructured error from UnmarshalEnvelope: %v", err)
			}
			return
		}
		raw, err := e.Marshal()
		if err != nil {
			t.Fatalf("re-encode of accepted envelope failed: %v", err)
		}
		rt, err := UnmarshalEnvelope(raw)
		if err != nil {
			t.Fatalf("re-decode of re-encoded envelope failed: %v", err)
		}
		if !reflect.DeepEqual(e, rt) {
			t.Fatalf("envelope round-trip mismatch:\n got %#v\nwant %#v", rt, e)
		}
		// The signing digest is the hash of the signing preimage, with the
		// wire bytes cached and re-encoded from the fields alike.
		bare := *e
		bare.bin, bare.sigOff = nil, 0
		for _, env := range []*Envelope{e, &bare} {
			if got, want := env.SignedDigest(), sha256.Sum256(env.SignedBytes()); got != want {
				t.Fatalf("SignedDigest %x, sha256(SignedBytes) %x", got, want)
			}
		}
	})
}
