// Package transport puts peers on real sockets: six entries of a network op
// table — an op byte and an internal/codec body per frame, see wire.go —
// that serve the gossip anti-entropy protocol (height probe, block
// streaming, block delivery) and remote endorsement for every channel of a
// peer.Host (NewHostServer), plus a client on network.Dial whose adapters
// slot into the existing in-process seams — a gossip.Member that joins a
// gossip.Network unchanged, and an endorser-compatible handle the gateway
// can ask for endorsements. Every request frame names its channel; a host
// answers a frame that names none as it answers one naming a channel it
// does not serve. This is the step from "four peers in one process" to the
// paper's four physical machines on one switch: every block and every
// endorsement crosses a (optionally shaped) TCP connection.
package transport

import (
	"fmt"

	"github.com/hyperprov/hyperprov/internal/network"
)

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

// HelloInfo is the handshake a serving peer answers for the channel its
// frame names: its identity, the channels its host serves, and the trust
// anchors of the network's organizations.
type HelloInfo struct {
	// Name is the serving peer's name.
	Name string
	// Channels lists every channel the host serves.
	Channels []string
	// Orgs lists the consortium's organization names, in policy order
	// (single org -> any-member endorsement policy, several -> majority).
	Orgs []string
	// CACertsPEM holds one CA certificate PEM per organization; a joining
	// process builds verification-only CAs from these to validate block
	// signatures.
	CACertsPEM [][]byte
	// Height is the peer's committed height on the named channel at
	// handshake time.
	Height uint64
}
