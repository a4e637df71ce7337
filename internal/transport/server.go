package transport

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// Node is the peer surface the transport serves; *peer.Peer implements it.
type Node interface {
	// Name identifies the peer.
	Name() string
	// Height returns the committed block height.
	Height() uint64
	// BlocksFrom returns committed blocks with number >= from.
	BlocksFrom(from uint64) []*blockstore.Block
	// DeliverBlock submits a gossiped block to the commit pipeline.
	DeliverBlock(b *blockstore.Block)
	// Sync waits until every submitted block is fully persisted.
	Sync()
	// ProcessProposal endorses a signed proposal.
	ProcessProposal(prop *endorser.Proposal) (*endorser.Response, error)
	// Query runs a read-only chaincode invocation.
	Query(chaincode, fn string, args [][]byte, creator []byte) (shim.Response, error)
	// StateFingerprint hashes committed world state (post-Sync).
	StateFingerprint() string
}

var _ Node = (*peer.Peer)(nil)

// ServerConfig parameterizes a serving peer.
type ServerConfig struct {
	// Orgs describes the network for the hello handshake.
	Orgs []string
	// CACertsPEM are the organizations' CA certificates handed to joining
	// processes as trust anchors.
	CACertsPEM [][]byte
	// Shape is applied to this server's writes on every accepted
	// connection, modelling the peer's uplink (per-connection link
	// shaping). Zero means unshaped.
	Shape network.LinkShape
	// Metrics, when set, receives server-side transport counters
	// (frames/bytes in each direction, gossip push deliveries).
	Metrics *metrics.Registry
	// Tracer, when set, records spans for remote-initiated work — endorse
	// and pushed block deliveries — under the trace ID carried in the
	// request's frame header (or the payload's txID).
	Tracer *trace.Recorder
}

// Server exposes one host — one or more channel-scoped peer nodes — on a
// TCP listener; the listener and the connection lifecycle (Addr, Close) are
// network.Server's. Every frame is routed to the node serving the channel
// named in its header extension; channel-less frames go to the default
// (first) channel, which is how pre-multichannel clients keep working.
type Server struct {
	*network.Server
	nodes map[string]Node
	order []string
	cfg   ServerConfig
}

// NewHostServer starts a transport server exposing every channel of a host
// on one listener at addr ("127.0.0.1:0" for an ephemeral port). The host's
// first channel is the default route for channel-less (pre-multichannel)
// clients.
func NewHostServer(addr string, host *peer.Host, cfg ServerConfig) (*Server, error) {
	s := &Server{nodes: make(map[string]Node), order: host.Channels(), cfg: cfg}
	if len(s.order) == 0 {
		return nil, errors.New("transport: host serves no channels")
	}
	for _, ch := range s.order {
		s.nodes[ch] = host.Channel(ch)
	}
	var err error
	if s.Server, err = network.Listen(addr, s.serve); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return s, nil
}

// nodeFor resolves a frame's channel extension to the serving node. An
// empty channel routes to the host's default channel.
func (s *Server) nodeFor(channelID string) (Node, string, bool) {
	if channelID == "" {
		channelID = s.order[0]
	}
	node, ok := s.nodes[channelID]
	return node, channelID, ok
}

// count bumps a server-side transport counter when metrics are configured.
// Every call site passes one of the metrics.Transport* constants, so the
// counter family set stays fixed.
func (s *Server) count(name string) {
	if s.cfg.Metrics != nil {
		//hyperprov:allow metricnames constant Transport* names forwarded by call sites
		s.cfg.Metrics.Counter(name).Inc()
	}
}

// serve handles one connection: framed requests in, shaped framed
// responses out. A framing violation (oversized announcement, torn frame)
// closes the connection — the client reconnects with backoff. A frame whose
// body does not decode (unknown op, torn layout) is answered with
// CodeBadRequest and the connection stays open: the frame boundary held.
func (s *Server) serve(conn net.Conn) {
	rw := network.CountConn(conn, s.cfg.Metrics)
	shaped := network.NewShapedConn(rw, s.cfg.Shape)
	for {
		// Each request is read into a buffer of its own: a delivered block
		// and an endorsed proposal alias it for as long as the peer keeps
		// them.
		body, traceID, channelID, err := network.ReadFrameExt(rw)
		if err != nil {
			return // EOF, oversized frame, or broken connection
		}
		s.count(metrics.TransportFramesReceived)
		if err := s.answer(shaped, body, traceID, channelID); err != nil {
			return
		}
	}
}

// answer routes one request body to its channel's node and writes the reply.
func (s *Server) answer(w *network.ShapedConn, body []byte, traceID, channelID string) error {
	out := network.NewFrame("", "")
	defer out.Release()
	if node, resolved, ok := s.nodeFor(channelID); !ok {
		// Answer with a structured code instead of dropping the connection:
		// the client maps it to ErrUnknownChannel and can report which
		// channels the host does serve.
		out.B = network.AppendStatus(out.B, network.CodeUnknownChannel,
			fmt.Sprintf("channel %q not served (serving %v)", channelID, s.order))
	} else if req, err := decodeRequest(body); err != nil {
		out.B = network.AppendStatus(out.B, network.CodeBadRequest, err.Error())
	} else if req.op == opBlocksFrom {
		return s.streamBlocks(w, node, req.from)
	} else {
		out.B = s.handle(out.B, node, resolved, req, traceID)
	}
	if err := out.Send(w); err != nil {
		return err
	}
	s.count(metrics.TransportFramesSent)
	return nil
}

// streamBlocks answers a blocksFrom request: one block per frame, then the
// terminating frame. Streaming per block keeps a long catch-up from
// buffering the whole tail in one frame and lets the shaper charge each
// block its own transfer.
func (s *Server) streamBlocks(w *network.ShapedConn, node Node, from uint64) error {
	send := func(traceID string, b *blockstore.Block) error {
		f := network.NewFrame(traceID, "")
		f.B = appendStreamFrame(f.B, b)
		err := f.Send(w)
		f.Release()
		if err == nil {
			s.count(metrics.TransportFramesSent)
		}
		return err
	}
	for _, b := range node.BlocksFrom(from) {
		start := time.Now()
		if err := send(blockTraceID(b), b); err != nil {
			return err
		}
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.AddBatch(envelopeIDs(b), trace.StageGossipSend, node.Name(), start, time.Since(start))
		}
	}
	return send("", nil)
}

// envelopeIDs collects a block's transaction IDs for span batching.
func envelopeIDs(b *blockstore.Block) []string {
	ids := make([]string, len(b.Envelopes))
	for i := range b.Envelopes {
		ids[i] = b.Envelopes[i].TxID
	}
	return ids
}

// handle executes one decoded request (every op but blocksFrom, which
// streams) and appends the reply body to out.
func (s *Server) handle(out []byte, node Node, channelID string, req *request, traceID string) []byte {
	// ok opens a successful reply; a failure starts over from out.
	ok := network.AppendStatus(out, network.CodeNone, "")
	switch req.op {
	case opHello:
		return appendHello(ok, &HelloInfo{
			Name:       node.Name(),
			ChannelID:  channelID,
			Channels:   s.order,
			Orgs:       s.cfg.Orgs,
			CACertsPEM: s.cfg.CACertsPEM,
			Height:     node.Height(),
		})
	case opHeight:
		return appendHeight(ok, node.Height())
	case opDeliver:
		start := time.Now()
		node.DeliverBlock(req.block)
		s.count(metrics.GossipPushDeliveries)
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.AddBatch(envelopeIDs(req.block), trace.StageGossipDeliver, node.Name(), start, time.Since(start))
		}
		return ok
	case opSync:
		node.Sync()
		return appendHeight(ok, node.Height())
	case opEndorse:
		start := time.Now()
		resp, err := node.ProcessProposal(req.proposal)
		if err != nil {
			return network.AppendStatus(out, classifyPeerErr(err), err.Error())
		}
		// Measure the remote endorse hop here (covers simulation + signing
		// on this peer), record it locally under the frame's trace ID, and
		// ship it back so the caller joins it into its own timeline.
		span := trace.Span{
			Stage:    trace.StageEndorse,
			Peer:     node.Name(),
			Start:    start,
			Duration: time.Since(start),
		}
		if s.cfg.Tracer != nil {
			id := traceID
			if id == "" {
				id = req.proposal.TxID
			}
			remote := span
			remote.Remote = true
			s.cfg.Tracer.Add(id, remote)
		}
		return appendEndorsement(ok, resp, &span)
	case opQuery:
		resp, err := node.Query(req.chaincode, req.function, req.args, req.creator)
		if err != nil {
			return network.AppendStatus(out, classifyPeerErr(err), err.Error())
		}
		return appendQueryReply(ok, resp)
	default: // opFingerprint: decodeRequest admits no other op
		fp := node.StateFingerprint()
		return appendFingerprint(ok, fp, node.Height())
	}
}

// classifyPeerErr maps peer sentinel errors onto wire error codes.
func classifyPeerErr(err error) network.ErrCode {
	switch {
	case errors.Is(err, peer.ErrUnknownChaincode):
		return network.CodeUnknownChaincode
	case errors.Is(err, peer.ErrSimulationFailed):
		return network.CodeSimulationFailed
	default:
		return network.CodeInternal
	}
}
