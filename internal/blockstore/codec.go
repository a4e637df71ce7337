package blockstore

import (
	"fmt"

	"github.com/hyperprov/hyperprov/internal/codec"
)

// Canonical binary encodings for the ledger's hot-path structures, built on
// the internal/codec substrate (the checkpoint codec's style: ASCII magic,
// version byte, uvarint framing, length-prefixed byte strings). These bytes
// are the ONE canonical form end to end: envelope signing preimages,
// ComputeDataHash, header hashing, gossip/transport frames, and the v2
// block-file format all consume the same per-envelope encoding, produced
// once per envelope per block and cached on the Envelope (see ensureBin).
var (
	envelopeMagic = []byte("HPEV")
	headerMagic   = []byte("HPHD")
	blockMagic    = []byte("HPBK")
)

// codecVersion is the current version byte of all three encodings. Decoders
// reject other versions with ErrMalformed, so a future v2 layout can take
// over the same magic.
const codecVersion = 1

// appendEnvelopeCore appends the envelope's signing preimage: every field
// except the client signature. It never mutates e.
func appendEnvelopeCore(buf []byte, e *Envelope) []byte {
	buf = append(buf, envelopeMagic...)
	buf = append(buf, codecVersion)
	buf = codec.AppendString(buf, e.TxID)
	buf = codec.AppendString(buf, e.ChannelID)
	buf = codec.AppendString(buf, e.Chaincode)
	buf = codec.AppendString(buf, e.Function)
	buf = codec.AppendUvarint(buf, uint64(len(e.Args)))
	for _, a := range e.Args {
		buf = codec.AppendBytes(buf, a)
	}
	buf = codec.AppendBytes(buf, e.Creator)
	buf = codec.AppendTime(buf, e.Timestamp)
	buf = codec.AppendBytes(buf, e.RWSet)
	buf = codec.AppendBytes(buf, e.Response)
	buf = codec.AppendBytes(buf, e.Events)
	buf = codec.AppendUvarint(buf, uint64(len(e.Endorsements)))
	for i := range e.Endorsements {
		buf = codec.AppendBytes(buf, e.Endorsements[i].Endorser)
		buf = codec.AppendBytes(buf, e.Endorsements[i].Signature)
	}
	return buf
}

// envelopeCoreSize and envelopeSize are the exact lengths of
// appendEnvelopeCore's and appendEnvelope's output, so encoders that start
// from nothing allocate once, at the final size, instead of growing by
// doubling — the cached encoding lives as long as the ledger, and spare
// capacity would live with it.
func envelopeCoreSize(e *Envelope) int {
	n := len(envelopeMagic) + 1 + codec.SizeTime(e.Timestamp) +
		codec.SizeUvarint(uint64(len(e.Args))) + codec.SizeUvarint(uint64(len(e.Endorsements))) +
		codec.SizeBytes(len(e.TxID)) + codec.SizeBytes(len(e.ChannelID)) +
		codec.SizeBytes(len(e.Chaincode)) + codec.SizeBytes(len(e.Function)) +
		codec.SizeBytes(len(e.Creator)) + codec.SizeBytes(len(e.RWSet)) +
		codec.SizeBytes(len(e.Response)) + codec.SizeBytes(len(e.Events))
	for _, a := range e.Args {
		n += codec.SizeBytes(len(a))
	}
	for i := range e.Endorsements {
		n += codec.SizeBytes(len(e.Endorsements[i].Endorser)) + codec.SizeBytes(len(e.Endorsements[i].Signature))
	}
	return n
}

func envelopeSize(e *Envelope) int {
	return envelopeCoreSize(e) + codec.SizeBytes(len(e.Signature))
}

// appendEnvelope appends the full envelope encoding: the signing preimage
// followed by the client signature. It never mutates e.
func appendEnvelope(buf []byte, e *Envelope) []byte {
	buf = appendEnvelopeCore(buf, e)
	return codec.AppendBytes(buf, e.Signature)
}

// checkVersion fails the cursor when a record announces a version this
// build does not speak.
func checkVersion(d *codec.Dec, what string, ver byte) {
	if d.Err() == nil && ver != codecVersion {
		d.Fail(fmt.Errorf("%w: %s version %d (supported: %d)",
			codec.ErrMalformed, what, ver, codecVersion))
	}
}

// decodeEnvelope decodes one full envelope encoding. The returned envelope
// aliases blob (byte fields share its backing array) and caches blob as its
// canonical encoding, so SignedBytes, data hashing, and re-serialization
// reuse the wire bytes without re-encoding.
func decodeEnvelope(blob []byte) (Envelope, error) {
	var e Envelope
	d := codec.NewDec(blob)
	checkVersion(d, "envelope", d.Magic(envelopeMagic))
	e.TxID = d.String()
	e.ChannelID = d.String()
	e.Chaincode = d.String()
	e.Function = d.String()
	if n := d.Count(); n > 0 {
		e.Args = make([][]byte, n)
		for i := range e.Args {
			e.Args[i] = d.BytesShared()
		}
	}
	e.Creator = d.BytesShared()
	e.Timestamp = d.Time()
	e.RWSet = d.BytesShared()
	e.Response = d.BytesShared()
	e.Events = d.BytesShared()
	if n := d.Count(); n > 0 {
		e.Endorsements = make([]Endorsement, n)
		for i := range e.Endorsements {
			e.Endorsements[i].Endorser = d.BytesShared()
			e.Endorsements[i].Signature = d.BytesShared()
		}
	}
	sigOff := len(blob) - d.Len()
	e.Signature = d.BytesShared()
	if err := d.Finish(); err != nil {
		return Envelope{}, fmt.Errorf("blockstore: envelope codec: %w", err)
	}
	e.bin, e.sigOff = blob, sigOff
	return e, nil
}

// MarshalBlock returns the block's canonical binary encoding: header
// fields, length-prefixed envelope encodings (reusing each envelope's
// cached bytes when present), validation codes, and a CRC-32C trailer.
// It never mutates b, so concurrent readers of a shared block are safe.
func MarshalBlock(b *Block) []byte {
	return AppendBlock(make([]byte, 0, b.Size()), b)
}

// Size is the exact length of AppendBlock's output. Clone decodes a block
// out of its own encoding and the copy aliases that buffer for as long as
// a peer keeps the block, so the buffer is allocated at its final size.
func (b *Block) Size() int {
	n := len(blockMagic) + 1 + codec.SizeUvarint(b.Header.Number) +
		codec.SizeBytes(len(b.Header.PreviousHash)) + codec.SizeBytes(len(b.Header.DataHash)) +
		codec.SizeUvarint(uint64(len(b.Envelopes))) + codec.SizeUvarint(uint64(len(b.TxValidation))) +
		4 // CRC-32C trailer
	for i := range b.Envelopes {
		e := &b.Envelopes[i]
		if e.bin != nil {
			n += codec.SizeBytes(len(e.bin))
		} else {
			n += codec.SizeBytes(envelopeSize(e))
		}
	}
	for _, c := range b.TxValidation {
		n += codec.SizeUvarint(uint64(c))
	}
	return n
}

// AppendBlock appends the block encoding to buf (see MarshalBlock); callers
// on the steady-state write path pass a pooled buffer to avoid per-block
// allocation.
func AppendBlock(buf []byte, b *Block) []byte {
	start := len(buf)
	buf = append(buf, blockMagic...)
	buf = append(buf, codecVersion)
	buf = codec.AppendUvarint(buf, b.Header.Number)
	buf = codec.AppendBytes(buf, b.Header.PreviousHash)
	buf = codec.AppendBytes(buf, b.Header.DataHash)
	buf = codec.AppendUvarint(buf, uint64(len(b.Envelopes)))
	for i := range b.Envelopes {
		e := &b.Envelopes[i]
		if e.bin != nil {
			buf = codec.AppendBytes(buf, e.bin)
		} else {
			tmp := codec.GetBuffer()
			tmp.B = appendEnvelope(tmp.B, e)
			buf = codec.AppendBytes(buf, tmp.B)
			tmp.Release()
		}
	}
	buf = codec.AppendUvarint(buf, uint64(len(b.TxValidation)))
	for _, c := range b.TxValidation {
		buf = codec.AppendUvarint(buf, uint64(c))
	}
	return codec.AppendChecksum(buf, start)
}

// UnmarshalBlock decodes a block produced by MarshalBlock. Decoded byte
// fields alias data; callers hand over ownership of the buffer. Failures
// are always structured (codec.ErrTruncated/ErrMalformed/ErrChecksum).
func UnmarshalBlock(data []byte) (*Block, error) {
	body, err := codec.VerifyChecksum(data)
	if err != nil {
		return nil, fmt.Errorf("blockstore: block codec: %w", err)
	}
	d := codec.NewDec(body)
	checkVersion(d, "block", d.Magic(blockMagic))
	var b Block
	b.Header.Number = d.Uvarint()
	b.Header.PreviousHash = d.BytesShared()
	b.Header.DataHash = d.BytesShared()
	if n := d.Count(); n > 0 {
		b.Envelopes = make([]Envelope, 0, n)
		for i := 0; i < n; i++ {
			blob := d.BytesShared()
			if d.Err() != nil {
				break
			}
			e, err := decodeEnvelope(blob)
			if err != nil {
				return nil, fmt.Errorf("blockstore: block %d envelope %d: %w", b.Header.Number, i, err)
			}
			b.Envelopes = append(b.Envelopes, e)
		}
	}
	if n := d.Count(); n > 0 {
		b.TxValidation = make([]ValidationCode, n)
		for i := range b.TxValidation {
			b.TxValidation[i] = ValidationCode(d.Uvarint())
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("blockstore: block codec: %w", err)
	}
	return &b, nil
}
