package transport

import (
	"errors"
	"fmt"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/trace"
)

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
// named in its header extension; a frame that names none is answered like
// one naming a channel the host does not serve.
type Server struct {
	*network.Server
	nodes map[string]*peer.Peer
	order []string
	cfg   ServerConfig
}

// NewHostServer starts a transport server exposing every channel of a host
// on one listener at addr ("127.0.0.1:0" for an ephemeral port).
func NewHostServer(addr string, host *peer.Host, cfg ServerConfig) (*Server, error) {
	s := &Server{nodes: make(map[string]*peer.Peer), order: host.Channels(), cfg: cfg}
	if len(s.order) == 0 {
		return nil, errors.New("transport: host serves no channels")
	}
	for _, ch := range s.order {
		s.nodes[ch] = host.Channel(ch)
	}
	var err error
	if s.Server, err = network.Listen(addr, s.table()); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return s, nil
}

// table is the transport's op table: every entry routed to the node serving
// the frame's channel.
func (s *Server) table() *network.Table {
	return &network.Table{Shape: s.cfg.Shape, Metrics: s.cfg.Metrics, Ops: []network.Op{
		s.routed(opHello, s.hello),
		s.routed(opHeight, s.height),
		s.routed(opBlocksFrom, s.blocksFrom),
		s.routed(opDeliver, s.deliver),
		s.routed(opSync, s.sync),
		s.routed(opEndorse, s.endorse),
	}}
}

// call is one request routed to its channel's node, with its body read into
// a buffer of its own: a delivered block and an endorsed proposal alias it
// for as long as the peer keeps them.
type call struct {
	*network.Request
	node *peer.Peer
	body *codec.Dec // the op's layout
	out  *network.Frame
}

// ok opens a successful reply.
func (c *call) ok() []byte { return network.AppendStatus(c.out.B, network.CodeNone, "") }

// routed makes op's table entry: the frame's channel is resolved once, and
// the body read, before handle runs. A channel the host does not serve, or
// none, is answered with CodeUnknownChannel instead of dropping the
// connection: the client maps it to ErrUnknownChannel and can report which
// channels the host does serve.
func (s *Server) routed(op network.Op, handle func(*call) error) network.Op {
	op.Handle = func(req *network.Request, out *network.Frame) error {
		node, ok := s.nodes[req.Channel]
		if !ok {
			out.B = network.AppendStatus(out.B, network.CodeUnknownChannel,
				fmt.Sprintf("channel %q not served (serving %v)", req.Channel, s.order))
			return nil
		}
		body, err := req.ReadAll()
		if err != nil {
			return err
		}
		return handle(&call{Request: req, node: node, body: codec.NewDec(body), out: out})
	}
	return op
}

func (s *Server) hello(c *call) error {
	if err := c.body.Finish(); err != nil {
		return err
	}
	c.out.B = appendHello(c.ok(), &HelloInfo{
		Name:       c.node.Name(),
		Channels:   s.order,
		Orgs:       s.cfg.Orgs,
		CACertsPEM: s.cfg.CACertsPEM,
		Height:     c.node.Height(),
	})
	return nil
}

func (s *Server) height(c *call) error {
	if err := c.body.Finish(); err != nil {
		return err
	}
	c.out.B = appendHeight(c.ok(), c.node.Height())
	return nil
}

// blocksFrom streams: one frame per block as the node reads it, up to the
// height at request start, ahead of the reply, which is the terminating
// frame. Streaming per block keeps a long catch-up from buffering the tail
// anywhere and lets the shaper charge each block its own transfer.
func (s *Server) blocksFrom(c *call) error {
	from := c.body.Uvarint()
	if err := c.body.Finish(); err != nil {
		return err
	}
	err := c.node.Blocks(from, func(b *blockstore.Block) error {
		start := time.Now()
		f := network.NewFrame(blockTraceID(b), "")
		f.B = appendStreamFrame(f.B, b)
		err := c.Send(f)
		f.Release()
		if err == nil && s.cfg.Tracer != nil {
			s.cfg.Tracer.AddBatch(b.TxIDs(), trace.StageGossipSend, c.node.Name(), start, time.Since(start))
		}
		return err
	})
	if err != nil {
		return err
	}
	c.out.B = appendStreamFrame(c.out.B, nil)
	return nil
}

func (s *Server) deliver(c *call) error {
	b, err := blockstore.UnmarshalBlock(c.body.Rest()) // aliases the body
	if err != nil {
		return err
	}
	start := time.Now()
	c.node.DeliverBlock(b)
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(metrics.GossipPushDeliveries).Inc()
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.AddBatch(b.TxIDs(), trace.StageGossipDeliver, c.node.Name(), start, time.Since(start))
	}
	c.out.B = c.ok()
	return nil
}

func (s *Server) sync(c *call) error {
	if err := c.body.Finish(); err != nil {
		return err
	}
	c.node.Sync()
	c.out.B = appendHeight(c.ok(), c.node.Height())
	return nil
}

func (s *Server) endorse(c *call) error {
	prop := decodeProposal(c.body)
	if err := c.body.Finish(); err != nil {
		return err
	}
	start := time.Now()
	resp, err := c.node.ProcessProposal(prop)
	if err != nil {
		c.out.B = network.AppendStatus(c.out.B, classifyPeerErr(err), err.Error())
		return nil
	}
	// Measure the remote endorse hop here (covers simulation + signing on
	// this peer), record it locally under the frame's trace ID, and ship it
	// back so the caller joins it into its own timeline.
	span := trace.Span{
		Stage:    trace.StageEndorse,
		Peer:     c.node.Name(),
		Start:    start,
		Duration: time.Since(start),
	}
	if s.cfg.Tracer != nil {
		id := c.TraceID
		if id == "" {
			id = prop.TxID
		}
		remote := span
		remote.Remote = true
		s.cfg.Tracer.Add(id, remote)
	}
	c.out.B = appendEndorsement(c.ok(), resp, &span)
	return nil
}

// classifyPeerErr maps peer sentinel errors onto wire error codes.
func classifyPeerErr(err error) network.ErrCode {
	switch {
	case errors.Is(err, peer.ErrUnknownChaincode):
		return network.CodeUnknownChaincode
	case errors.Is(err, peer.ErrSimulationFailed):
		return network.CodeSimulationFailed
	case errors.Is(err, peer.ErrWrongChannel):
		return network.CodeBadRequest
	default:
		return network.CodeInternal
	}
}
