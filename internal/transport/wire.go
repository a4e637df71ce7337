package transport

import (
	"fmt"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// This file is the wire: every message is one network frame whose body is
// written and read with internal/codec. A request is an op byte — the entry
// of the server's network.Table that answers it — followed by that op's
// layout; a reply is a status (network.AppendStatus) followed, on success, by
// the op's reply layout, and on failure by nothing more — the status carries
// the code and the message.
//
//	op             request                       reply
//	01 hello       -                             name, channels, orgs, CA certs, height
//	02 height      -                             height
//	03 blocksFrom  from                          stream of frames: more=1 + block, closed by more=0
//	04 deliver     block                         -
//	05 sync        -                             height
//	06 endorse     proposal fields, signature    response fields, signature, serving peer's span
//	07, 08         reserved: query and fingerprint, retired — never reuse
//
// Blocks travel as blockstore.AppendBlock wrote them, last in the frame:
// the encoding delimits and checksums itself, it goes straight into the
// pooled frame buffer on the sending side, and the receiving side decodes it
// in place, so the peer holds exactly one wire buffer per block and its
// commit pipeline reuses those bytes.

// The protocol's ops: each op's code and name, spelled once. The server
// makes them its table's entries, the client names its per-op latency
// histograms after them. The codes are the protocol: append, never renumber
// or reuse — 07 and 08 are taken.
var (
	opHello      = network.Op{Code: 0x01, Name: "hello"}
	opHeight     = network.Op{Code: 0x02, Name: "height"}
	opBlocksFrom = network.Op{Code: 0x03, Name: "blocksFrom"}
	opDeliver    = network.Op{Code: 0x04, Name: "deliver"}
	opSync       = network.Op{Code: 0x05, Name: "sync"}
	opEndorse    = network.Op{Code: 0x06, Name: "endorse"}
)

// blockTraceID is the trace a block's frame is stamped with: its first
// transaction's ID, so the receiving process can associate the frame with
// in-flight traces.
func blockTraceID(b *blockstore.Block) string {
	if len(b.Envelopes) == 0 {
		return ""
	}
	return b.Envelopes[0].TxID
}

// appendProposal lays the proposal out in SignedBytes order, then the
// signature.
func appendProposal(buf []byte, p *endorser.Proposal) []byte {
	buf = codec.AppendString(buf, p.TxID)
	buf = codec.AppendString(buf, p.ChannelID)
	buf = codec.AppendString(buf, p.Chaincode)
	buf = codec.AppendString(buf, p.Function)
	buf = appendByteStrings(buf, p.Args)
	buf = codec.AppendBytes(buf, p.Creator)
	buf = codec.AppendTime(buf, p.Timestamp)
	return codec.AppendBytes(buf, p.Signature)
}

func decodeProposal(d *codec.Dec) *endorser.Proposal {
	return &endorser.Proposal{
		TxID:      d.String(),
		ChannelID: d.String(),
		Chaincode: d.String(),
		Function:  d.String(),
		Args:      decodeByteStrings(d),
		Creator:   d.BytesShared(),
		Timestamp: d.Time(),
		Signature: d.BytesShared(),
	}
}

// appendHello is the hello reply: who the peer is and the trust material a
// remote process needs to validate this network's blocks (CA certificates
// only — private keys never cross the wire).
func appendHello(buf []byte, h *HelloInfo) []byte {
	buf = codec.AppendString(buf, h.Name)
	buf = appendStrings(buf, h.Channels)
	buf = appendStrings(buf, h.Orgs)
	buf = appendByteStrings(buf, h.CACertsPEM)
	return codec.AppendUvarint(buf, h.Height)
}

func decodeHello(d *codec.Dec) HelloInfo {
	return HelloInfo{
		Name:       d.String(),
		Channels:   decodeStrings(d),
		Orgs:       decodeStrings(d),
		CACertsPEM: decodeByteStrings(d),
		Height:     d.Uvarint(),
	}
}

// appendHeight is the height and sync reply.
func appendHeight(buf []byte, height uint64) []byte { return codec.AppendUvarint(buf, height) }

func decodeHeight(d *codec.Dec) uint64 { return d.Uvarint() }

// appendStreamFrame is one frame of a blocksFrom reply, status included: a
// block (more=1), or the terminator (b == nil, more=0). A long catch-up is
// streamed one block per frame, never buffered whole.
func appendStreamFrame(buf []byte, b *blockstore.Block) []byte {
	buf = network.AppendStatus(buf, network.CodeNone, "")
	buf = codec.AppendBool(buf, b != nil)
	if b != nil {
		buf = blockstore.AppendBlock(buf, b)
	}
	return buf
}

// decodeStreamFrame decodes one frame of a blocksFrom reply; a nil block
// with a nil error is the terminator. The block aliases body.
func decodeStreamFrame(body []byte) (*blockstore.Block, error) {
	d := codec.NewDec(body)
	if err := replyStatus(d); err != nil {
		return nil, err
	}
	if !d.Bool() {
		return nil, d.Finish()
	}
	return blockstore.UnmarshalBlock(d.Rest())
}

// appendEndorsement is the endorse reply: the response in SignedBytes order,
// its signature, and the serving peer's measured endorse span, shipped back
// so the requesting process can join the remote hop into its own trace
// timeline.
func appendEndorsement(buf []byte, r *endorser.Response, span *trace.Span) []byte {
	buf = codec.AppendString(buf, r.TxID)
	buf = codec.AppendVarint(buf, int64(r.Status))
	buf = codec.AppendString(buf, r.Message)
	buf = codec.AppendBytes(buf, r.Payload)
	buf = codec.AppendBytes(buf, r.RWSet)
	buf = codec.AppendBytes(buf, r.Events)
	buf = codec.AppendBytes(buf, r.Endorser)
	buf = codec.AppendBytes(buf, r.Signature)
	buf = codec.AppendString(buf, span.Stage)
	buf = codec.AppendString(buf, span.Peer)
	buf = codec.AppendTime(buf, span.Start)
	return codec.AppendVarint(buf, int64(span.Duration))
}

func decodeEndorsement(d *codec.Dec) (*endorser.Response, trace.Span) {
	r := &endorser.Response{
		TxID:      d.String(),
		Status:    decodeInt32(d),
		Message:   d.String(),
		Payload:   d.BytesShared(),
		RWSet:     d.BytesShared(),
		Events:    d.BytesShared(),
		Endorser:  d.BytesShared(),
		Signature: d.BytesShared(),
	}
	return r, trace.Span{
		Stage:    d.String(),
		Peer:     d.String(),
		Start:    d.Time(),
		Duration: time.Duration(d.Varint()),
	}
}

// replyStatus consumes a reply's status, turning a failure into the
// *RemoteError it describes and a torn status into the decode error.
func replyStatus(d *codec.Dec) error {
	code, msg := network.ReadStatus(d)
	if code == network.CodeNone {
		return nil
	}
	if err := d.Finish(); err != nil {
		return err
	}
	return &RemoteError{Code: code, Msg: msg}
}

// decodeInt32 reads a varint that must fit a chaincode status.
func decodeInt32(d *codec.Dec) int32 {
	v := d.Varint()
	if int64(int32(v)) != v {
		d.Fail(fmt.Errorf("%w: status %d overflows int32", codec.ErrMalformed, v))
		return 0
	}
	return int32(v)
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = codec.AppendString(buf, s)
	}
	return buf
}

func decodeStrings(d *codec.Dec) []string {
	n := d.Count()
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.String()
	}
	return ss
}

func appendByteStrings(buf []byte, ps [][]byte) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(ps)))
	for _, p := range ps {
		buf = codec.AppendBytes(buf, p)
	}
	return buf
}

// decodeByteStrings reads a list of byte strings aliasing the input.
func decodeByteStrings(d *codec.Dec) [][]byte {
	n := d.Count()
	if n == 0 {
		return nil
	}
	ps := make([][]byte, n)
	for i := range ps {
		ps[i] = d.BytesShared()
	}
	return ps
}
