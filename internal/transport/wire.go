package transport

import (
	"fmt"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// This file is the wire: every message is one network frame whose body is
// written and read with internal/codec. A request is an op byte followed by
// that op's layout; a reply is a status (network.AppendStatus) followed, on
// success, by the op's reply layout, and on failure by nothing more — the
// status carries the code and the message.
//
//	op           request                       reply
//	hello        -                             name, channel, channels, orgs, CA certs, height
//	height       -                             height
//	blocksFrom   from                          stream of frames: more=1 + block, closed by more=0
//	deliver      block                         -
//	sync         -                             height
//	endorse      proposal fields, signature    response fields, signature, serving peer's span
//	query        chaincode, function, args,    status, message, payload
//	             creator
//	fingerprint  -                             fingerprint, height
//
// Blocks travel as blockstore.AppendBlock wrote them, last in the frame:
// the encoding delimits and checksums itself, it goes straight into the
// pooled frame buffer on the sending side, and the receiving side decodes it
// in place, so the peer holds exactly one wire buffer per block and its
// commit pipeline reuses those bytes.

// opCode is a request's first byte.
type opCode byte

// Protocol operations. The values are the protocol: append, never renumber.
const (
	opHello opCode = iota + 1
	opHeight
	opBlocksFrom
	opDeliver
	opSync
	opEndorse
	opQuery
	opFingerprint
)

var opNames = [...]string{
	opHello:       "hello",
	opHeight:      "height",
	opBlocksFrom:  "blocksFrom",
	opDeliver:     "deliver",
	opSync:        "sync",
	opEndorse:     "endorse",
	opQuery:       "query",
	opFingerprint: "fingerprint",
}

// String names the op as the per-RPC latency histograms and error messages
// spell it. An op outside the protocol renders as its byte.
func (o opCode) String() string {
	if o >= opHello && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%#x)", byte(o))
}

// request is one client -> server message: the op and the fields of that
// op's layout.
type request struct {
	op opCode
	// from is the starting block number for blocksFrom.
	from uint64
	// block is the pushed block for deliver.
	block *blockstore.Block
	// proposal is the signed proposal for endorse.
	proposal *endorser.Proposal
	// chaincode/function/args/creator describe a query invocation.
	chaincode string
	function  string
	args      [][]byte
	creator   []byte
}

// traceID picks the trace a request joins, carried in its frame header: the
// proposal's transaction for endorse, the pushed block's for deliver, none
// otherwise.
func (r *request) traceID() string {
	switch {
	case r.proposal != nil:
		return r.proposal.TxID
	case r.block != nil:
		return blockTraceID(r.block)
	}
	return ""
}

// blockTraceID is the trace a block's frame is stamped with: its first
// transaction's ID, so the receiving process can associate the frame with
// in-flight traces.
func blockTraceID(b *blockstore.Block) string {
	if len(b.Envelopes) == 0 {
		return ""
	}
	return b.Envelopes[0].TxID
}

func appendRequest(buf []byte, req *request) []byte {
	buf = append(buf, byte(req.op))
	switch req.op {
	case opBlocksFrom:
		buf = codec.AppendUvarint(buf, req.from)
	case opDeliver:
		buf = blockstore.AppendBlock(buf, req.block)
	case opEndorse:
		buf = appendProposal(buf, req.proposal)
	case opQuery:
		buf = codec.AppendString(buf, req.chaincode)
		buf = codec.AppendString(buf, req.function)
		buf = appendByteStrings(buf, req.args)
		buf = codec.AppendBytes(buf, req.creator)
	}
	return buf
}

// decodeRequest decodes a request frame's body. Decoded byte fields alias
// body, which the request then owns. Failures wrap a codec sentinel; an op
// outside the protocol — a peer still speaking JSON opens with '{' — is
// ErrMalformed.
func decodeRequest(body []byte) (*request, error) {
	d := codec.NewDec(body)
	req := &request{op: opCode(d.Byte())}
	switch req.op {
	case opHello, opHeight, opSync, opFingerprint:
	case opBlocksFrom:
		req.from = d.Uvarint()
	case opDeliver:
		b, err := blockstore.UnmarshalBlock(d.Rest())
		if err != nil {
			return nil, fmt.Errorf("deliver without a decodable block: %w", err)
		}
		req.block = b
	case opEndorse:
		req.proposal = decodeProposal(d)
	case opQuery:
		req.chaincode = d.String()
		req.function = d.String()
		req.args = decodeByteStrings(d)
		req.creator = d.BytesShared()
	default:
		d.Fail(fmt.Errorf("%w: unknown op %#x", codec.ErrMalformed, byte(req.op)))
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%s request: %w", req.op, err)
	}
	return req, nil
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
	buf = codec.AppendString(buf, h.ChannelID)
	buf = appendStrings(buf, h.Channels)
	buf = appendStrings(buf, h.Orgs)
	buf = appendByteStrings(buf, h.CACertsPEM)
	return codec.AppendUvarint(buf, h.Height)
}

func decodeHello(d *codec.Dec) HelloInfo {
	return HelloInfo{
		Name:       d.String(),
		ChannelID:  d.String(),
		Channels:   decodeStrings(d),
		Orgs:       decodeStrings(d),
		CACertsPEM: decodeByteStrings(d),
		Height:     d.Uvarint(),
	}
}

// appendHeight is the height and sync reply.
func appendHeight(buf []byte, height uint64) []byte { return codec.AppendUvarint(buf, height) }

func decodeHeight(d *codec.Dec) uint64 { return d.Uvarint() }

// appendFingerprint is the fingerprint reply: the committed state
// fingerprint and the height it was taken at.
func appendFingerprint(buf []byte, fingerprint string, height uint64) []byte {
	return codec.AppendUvarint(codec.AppendString(buf, fingerprint), height)
}

func decodeFingerprint(d *codec.Dec) (string, uint64) { return d.String(), d.Uvarint() }

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

// appendQueryReply is the query reply: the chaincode's response.
func appendQueryReply(buf []byte, r shim.Response) []byte {
	buf = codec.AppendVarint(buf, int64(r.Status))
	buf = codec.AppendString(buf, r.Message)
	return codec.AppendBytes(buf, r.Payload)
}

func decodeQueryReply(d *codec.Dec) shim.Response {
	return shim.Response{Status: decodeInt32(d), Message: d.String(), Payload: d.BytesShared()}
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
