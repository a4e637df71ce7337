// Package blockstore defines the block and transaction envelope structures
// and an append-only, hash-chained block store — the tamper-proof ledger
// that gives HyperProv its integrity guarantees. Block headers chain by
// SHA-256 exactly as in Fabric: each header carries the hash of the previous
// header and a hash over the block's transaction data.
package blockstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"github.com/hyperprov/hyperprov/internal/codec"
)

// ValidationCode records the per-transaction outcome decided at commit time.
type ValidationCode int

// Validation outcomes, mirroring Fabric's TxValidationCode.
const (
	TxValid ValidationCode = iota + 1
	TxMVCCConflict
	TxEndorsementPolicyFailure
	TxBadSignature
	TxMalformed
)

// String returns a short human-readable form of the validation code.
func (c ValidationCode) String() string {
	switch c {
	case TxValid:
		return "VALID"
	case TxMVCCConflict:
		return "MVCC_READ_CONFLICT"
	case TxEndorsementPolicyFailure:
		return "ENDORSEMENT_POLICY_FAILURE"
	case TxBadSignature:
		return "BAD_SIGNATURE"
	case TxMalformed:
		return "MALFORMED"
	default:
		return fmt.Sprintf("code(%d)", int(c))
	}
}

// TxResult reports a committed transaction to the client that submitted it.
type TxResult struct {
	TxID     string
	BlockNum uint64
	Code     ValidationCode
	Payload  []byte
	// Latency is the wall-clock submit-to-commit duration.
	Latency time.Duration
}

// ChaincodeEvent is one chaincode event of a transaction that committed as
// valid, as a peer's event hub hands it to subscribed clients.
type ChaincodeEvent struct {
	TxID     string `json:"txId"`
	BlockNum uint64 `json:"blockNum"`
	Name     string `json:"name"`
	Payload  []byte `json:"payload,omitempty"`
}

// Endorsement is one peer's signature over a proposal response payload.
type Endorsement struct {
	Endorser  []byte `json:"endorser"`  // serialized identity of the endorsing peer
	Signature []byte `json:"signature"` // over the response payload
}

// Envelope is a client-signed transaction as submitted to ordering: the
// proposal, the simulated read/write set, and the collected endorsements.
//
// An envelope is immutable once encoded or decoded: bin caches the
// canonical binary encoding (produced exactly once per envelope per block)
// and every downstream consumer — signing preimage, data hash, gossip
// frame, ledger append — reuses those bytes instead of re-encoding.
type Envelope struct {
	TxID         string        `json:"txId"`
	ChannelID    string        `json:"channelId"`
	Chaincode    string        `json:"chaincode"`
	Function     string        `json:"function"`
	Args         [][]byte      `json:"args,omitempty"`
	Creator      []byte        `json:"creator"` // serialized identity of submitting client
	Timestamp    time.Time     `json:"timestamp"`
	RWSet        []byte        `json:"rwset"` // marshaled rwset.ReadWriteSet
	Response     []byte        `json:"response,omitempty"`
	Events       []byte        `json:"events,omitempty"` // marshaled chaincode events
	Endorsements []Endorsement `json:"endorsements,omitempty"`
	Signature    []byte        `json:"signature"` // client signature over SignedBytes

	// bin is the cached canonical encoding (appendEnvelope layout); sigOff
	// is the length of its signing-preimage prefix. Populated only by code
	// that exclusively owns the envelope (NewBlock, Seal, SealSigned, decode),
	// never lazily on shared envelopes — that keeps concurrent readers
	// race-free.
	bin    []byte
	sigOff int
}

// SignedBytes returns the deterministic byte string the client signs and
// validators verify: the canonical binary encoding of every field except
// the signature. When the envelope carries its cached encoding the prefix
// is returned directly; otherwise the preimage is encoded fresh without
// mutating the envelope.
func (e *Envelope) SignedBytes() []byte {
	if e.bin != nil {
		return e.bin[:e.sigOff:e.sigOff]
	}
	return appendEnvelopeCore(make([]byte, 0, envelopeCoreSize(e)), e)
}

// SignedDigest returns sha256(SignedBytes()) — what the client's signature
// is computed and checked over — without allocating the preimage: the cached
// encoding's prefix is hashed in place, and an envelope that carries none is
// encoded into pooled scratch.
func (e *Envelope) SignedDigest() [sha256.Size]byte {
	if e.bin != nil {
		return sha256.Sum256(e.bin[:e.sigOff])
	}
	scratch := codec.GetBuffer()
	defer scratch.Release()
	scratch.B = appendEnvelopeCore(scratch.B, e)
	return sha256.Sum256(scratch.B)
}

// Marshal returns the envelope's canonical binary encoding for transport
// and block inclusion, reusing the cached bytes when present. Callers must
// not mutate the returned slice.
func (e *Envelope) Marshal() ([]byte, error) {
	if e.bin != nil {
		return e.bin, nil
	}
	return appendEnvelope(make([]byte, 0, envelopeSize(e)), e), nil
}

// Seal caches the envelope's canonical encoding on the envelope and
// returns its size in bytes. The caller must exclusively own the envelope
// and must not mutate its fields afterwards; downstream consumers (block
// data hashing, ledger append, gossip frames) reuse the sealed bytes
// instead of re-encoding. Sealing an already-sealed envelope is a no-op.
func (e *Envelope) Seal() int {
	e.ensureBin()
	return len(e.bin)
}

// SealSigned signs and seals a freshly assembled envelope in one encoding:
// the signing preimage is encoded once, sign receives its SHA-256, and the
// signature is appended to the same buffer, which becomes the cached
// canonical encoding. The caller must exclusively own the envelope, which
// must not be sealed yet, and must not mutate its fields afterwards.
func (e *Envelope) SealSigned(sign func(digest [sha256.Size]byte) ([]byte, error)) error {
	core := appendEnvelopeCore(make([]byte, 0, envelopeCoreSize(e)+maxSignatureSize), e)
	sig, err := sign(sha256.Sum256(core))
	if err != nil {
		return err
	}
	e.Signature = sig
	e.sigOff = len(core)
	e.bin = codec.AppendBytes(core, sig)
	return nil
}

// maxSignatureSize is the room SealSigned reserves for the length-prefixed
// signature: an ASN.1 ECDSA P-256 signature is at most 72 bytes. A longer
// one still fits — the buffer grows — it only costs a copy.
const maxSignatureSize = 1 + 72

// EncodedLen returns the length of the envelope's cached canonical encoding
// and true, or (0, false) when the envelope was never sealed or decoded. It
// never encodes and never mutates, so unlike Seal it is safe to call on an
// envelope shared between goroutines.
func (e *Envelope) EncodedLen() (int, bool) {
	if e.bin == nil {
		return 0, false
	}
	return len(e.bin), true
}

// ensureBin caches e's canonical encoding. Callers must exclusively own
// the envelope and must not mutate its fields afterwards.
func (e *Envelope) ensureBin() {
	if e.bin != nil {
		return
	}
	core := appendEnvelopeCore(make([]byte, 0, envelopeSize(e)), e)
	e.sigOff = len(core)
	e.bin = codec.AppendBytes(core, e.Signature)
}

// UnmarshalEnvelope decodes an envelope produced by Marshal.
func UnmarshalEnvelope(b []byte) (*Envelope, error) {
	e, err := decodeEnvelope(b)
	if err != nil {
		return nil, err
	}
	return &e, nil
}

// Header is a block header; headers form the hash chain.
type Header struct {
	Number       uint64 `json:"number"`
	PreviousHash []byte `json:"previousHash"`
	DataHash     []byte `json:"dataHash"`
}

// Hash returns the SHA-256 hash of the header's canonical binary preimage,
// which the next block's PreviousHash must equal.
func (h *Header) Hash() []byte {
	sum := h.sum()
	return sum[:]
}

// sum is Hash as an array, for callers that key or compare by value.
func (h *Header) sum() [sha256.Size]byte {
	var arr [96]byte
	buf := append(arr[:0], headerMagic...)
	buf = append(buf, codecVersion)
	buf = codec.AppendUvarint(buf, h.Number)
	buf = codec.AppendBytes(buf, h.PreviousHash)
	buf = codec.AppendBytes(buf, h.DataHash)
	return sha256.Sum256(buf)
}

// Block is an ordered batch of envelopes plus per-transaction validation
// flags filled in by the committing peer.
type Block struct {
	Header    Header     `json:"header"`
	Envelopes []Envelope `json:"envelopes"`
	// TxValidation is parallel to Envelopes; zero until the peer validates.
	TxValidation []ValidationCode `json:"txValidation,omitempty"`
}

// ComputeDataHash hashes the block's transaction data: a SHA-256 over the
// concatenated per-envelope hashes (a flat Merkle summary). Each envelope
// hash covers its canonical binary encoding, re-encoded from the struct
// fields into pooled scratch — deliberately ignoring any cached encoding,
// so the integrity audit (VerifyData/VerifyChain) detects in-memory
// tampering with a decoded block's fields.
func ComputeDataHash(envs []Envelope) []byte {
	h := sha256.New()
	scratch := codec.GetBuffer()
	for i := range envs {
		scratch.B = appendEnvelope(scratch.B[:0], &envs[i])
		sum := sha256.Sum256(scratch.B)
		h.Write(sum[:])
	}
	scratch.Release()
	return h.Sum(nil)
}

// NewBlock assembles a block with the correct data hash, chained onto
// prevHash. It takes ownership of envs: each envelope's canonical encoding
// is computed here, exactly once, and the same bytes feed the data hash
// now and the gossip/ledger paths later — callers must not mutate the
// envelopes afterwards.
func NewBlock(number uint64, prevHash []byte, envs []Envelope) *Block {
	h := sha256.New()
	for i := range envs {
		envs[i].ensureBin()
		sum := sha256.Sum256(envs[i].bin)
		h.Write(sum[:])
	}
	return &Block{
		Header:    Header{Number: number, PreviousHash: prevHash, DataHash: h.Sum(nil)},
		Envelopes: envs,
	}
}

// VerifyData checks the block's data hash against its contents.
func (b *Block) VerifyData() error {
	if !bytes.Equal(ComputeDataHash(b.Envelopes), b.Header.DataHash) {
		return fmt.Errorf("blockstore: block %d data hash mismatch", b.Header.Number)
	}
	return nil
}

// TxIDs returns the block's transaction IDs in envelope order, for tracing
// spans that cover a whole block.
func (b *Block) TxIDs() []string {
	ids := make([]string, len(b.Envelopes))
	for i := range b.Envelopes {
		ids[i] = b.Envelopes[i].TxID
	}
	return ids
}

// Clone returns a deep copy of the block (envelopes share no mutable state
// with the original), for tests and tools that want a block they may tamper
// with. The commit pipeline does not clone: envelopes are immutable, so a
// committing peer shares the ordered block's envelopes and owns only its
// validation flags. The copy travels through the canonical binary encoding,
// so cloned envelopes come back with their encodings cached.
func (b *Block) Clone() *Block {
	cp, err := UnmarshalBlock(MarshalBlock(b))
	if err != nil {
		// Encoding a well-formed in-memory block and decoding it back
		// cannot fail; reaching this is memory corruption, not input error.
		panic(fmt.Sprintf("blockstore: clone round-trip: %v", err))
	}
	return cp
}
