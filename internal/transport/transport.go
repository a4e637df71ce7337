// Package transport puts peers on real sockets: a TCP service over the
// network package's length-prefixed framing that serves the gossip
// anti-entropy protocol (height probe, block streaming, block delivery) and
// remote endorsement/query, plus a client whose adapters slot into the
// existing in-process seams — a gossip.Member that joins a gossip.Network
// unchanged, and an endorser-compatible handle the gateway can fan
// proposals to. This is the step from "four peers in one process" to the
// paper's four physical machines on one switch: every block and every
// endorsement crosses a (optionally shaped) TCP connection.
package transport

import (
	"fmt"

	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// Protocol operations.
const (
	opHello       = "hello"
	opHeight      = "height"
	opBlocksFrom  = "blocksFrom"
	opDeliver     = "deliver"
	opSync        = "sync"
	opEndorse     = "endorse"
	opQuery       = "query"
	opFingerprint = "fingerprint"
)

// request is one framed client -> server message.
type request struct {
	Op string `json:"op"`
	// From is the starting block number for blocksFrom.
	From uint64 `json:"from,omitempty"`
	// BlockBin is the pushed block for deliver in canonical binary form
	// (blockstore.MarshalBlock): the decoded envelopes arrive carrying
	// their canonical bytes, so the receiving peer's commit pipeline never
	// re-encodes them.
	BlockBin []byte `json:"blockBin,omitempty"`
	// Proposal is the signed proposal for endorse.
	Proposal *endorser.Proposal `json:"proposal,omitempty"`
	// Chaincode/Function/Args/Creator describe a query invocation.
	Chaincode string   `json:"chaincode,omitempty"`
	Function  string   `json:"function,omitempty"`
	Args      [][]byte `json:"args,omitempty"`
	Creator   []byte   `json:"creator,omitempty"`
}

// response is one framed server -> client message. Failures carry a
// structured error code (shared with the off-chain store protocol) so
// clients classify them without parsing message text. A blocksFrom request
// is answered by a sequence of responses, one block per frame with
// More=true, terminated by an empty More=false frame — a long catch-up is
// streamed, never buffered whole.
type response struct {
	OK   bool            `json:"ok"`
	Code network.ErrCode `json:"code,omitempty"`
	Err  string          `json:"err,omitempty"`

	// hello fields: who the peer is and the trust material a remote
	// process needs to validate this network's blocks (CA certificates
	// only — private keys never cross the wire). ChannelID is the channel
	// the handshake resolved to; Channels lists every channel the host
	// serves, so a joiner can discover the topology.
	Name       string   `json:"name,omitempty"`
	ChannelID  string   `json:"channelId,omitempty"`
	Channels   []string `json:"channels,omitempty"`
	Orgs       []string `json:"orgs,omitempty"`
	CACertsPEM [][]byte `json:"caCerts,omitempty"`

	// height / fingerprint fields.
	Height      uint64 `json:"height,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`

	// blocksFrom stream fields: one canonical binary block per frame.
	BlockBin []byte `json:"blockBin,omitempty"`
	More     bool   `json:"more,omitempty"`

	// endorse fields. Span is the serving peer's measured endorse span,
	// shipped back so the requesting process can join the remote hop into
	// its own trace timeline.
	Endorsement *endorser.Response `json:"endorsement,omitempty"`
	Span        *trace.Span        `json:"span,omitempty"`

	// query fields.
	Status  int32  `json:"status,omitempty"`
	Message string `json:"message,omitempty"`
	Payload []byte `json:"payload,omitempty"`
}

// RemoteError is a structured failure reported by the remote peer.
type RemoteError struct {
	Code network.ErrCode
	Msg  string
}

// Error renders the remote failure.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote error [%s]: %s", e.Code, e.Msg)
}

// Is maps wire error codes onto package sentinels, so callers classify
// remote failures with errors.Is instead of matching message text.
func (e *RemoteError) Is(target error) bool {
	return target == ErrUnknownChannel && e.Code == network.CodeUnknownChannel
}

// remoteErr converts a failed response into a RemoteError.
func remoteErr(resp *response) error {
	code := resp.Code
	if code == network.CodeNone {
		code = network.CodeInternal
	}
	return &RemoteError{Code: code, Msg: resp.Err}
}

// HelloInfo is the handshake a serving peer answers: its identity, the
// channel, and the trust anchors of the network's organizations.
type HelloInfo struct {
	// Name is the serving peer's name.
	Name string
	// ChannelID is the channel this handshake resolved to: the client's
	// requested channel, or the host's default for channel-less clients.
	ChannelID string
	// Channels lists every channel the host serves (nil from pre-multichannel
	// servers).
	Channels []string
	// Orgs lists the consortium's organization names, in policy order
	// (single org -> any-member endorsement policy, several -> majority).
	Orgs []string
	// CACertsPEM holds one CA certificate PEM per organization; a joining
	// process builds verification-only CAs from these to validate block
	// signatures.
	CACertsPEM [][]byte
	// Height is the peer's committed height at handshake time.
	Height uint64
}
