package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/gossip"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// ErrBackoff is returned when a request arrives while the client is
// holding off redialling a dead peer; the caller should simply try again
// later (gossip does, every round).
var ErrBackoff = network.ErrBackoff

// ErrUnknownChannel is the sentinel a *RemoteError carrying
// network.CodeUnknownChannel matches via errors.Is: the host rejected the
// request because it does not serve the client's channel. A joiner should
// surface the host's served-channel list instead of retrying.
var ErrUnknownChannel = errors.New("transport: host does not serve the requested channel")

// ClientConfig tunes a transport client.
type ClientConfig struct {
	// Channel names the channel every request from this client targets: it
	// rides in each frame's header extension, and the serving host routes
	// the frame to that channel's peer instance. Empty sends channel-less
	// frames (byte-identical to pre-multichannel clients), which a host
	// routes to its default channel.
	Channel string
	// Shape is applied to the client's writes (its uplink); zero means
	// unshaped.
	Shape network.LinkShape
	// DialTimeout bounds one TCP connect attempt; 0 means 3s.
	DialTimeout time.Duration
	// MinBackoff/MaxBackoff bound the exponential redial backoff after a
	// failed dial; 0 means 50ms / 2s.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Metrics, when set, receives transport counters (frames/bytes in each
	// direction, reconnects, handshake failures) and per-RPC latency
	// histograms named metrics.TransportRPC + "_<op>".
	Metrics *metrics.Registry
	// Tracer, when set, joins remote endorse spans (shipped back in the
	// response, marked Remote) into this process's trace timelines.
	Tracer *trace.Recorder
}

// Client is one peer's view of a remote peer: the op table spoken over a
// network.Client, which owns the connection — exchanges serialized over one
// TCP connection, one immediate redial when the remote drops, exponential
// backoff while it stays dead.
type Client struct {
	nc    *network.Client
	cfg   ClientConfig
	hello HelloInfo
}

// Dial connects to a serving peer and performs the hello handshake. A
// channel ID longer than a peer accepts (peer.MaxChannelID) is refused here,
// before anything is sent: no host serves it, and the frame header could not
// carry one over 255 bytes at all.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if len(cfg.Channel) > peer.MaxChannelID {
		return nil, fmt.Errorf("transport: channel ID of %d bytes, over the %d a channel may have", len(cfg.Channel), peer.MaxChannelID)
	}
	nc, err := network.Dial(addr, network.ClientConfig{
		Shape:       cfg.Shape,
		DialTimeout: cfg.DialTimeout,
		MinBackoff:  cfg.MinBackoff,
		MaxBackoff:  cfg.MaxBackoff,
		Metrics:     cfg.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	c := &Client{nc: nc, cfg: cfg}
	d, err := c.roundTrip(opHello, "", nil)
	if err == nil {
		c.hello = decodeHello(d)
		err = c.finish(opHello, d)
	}
	if err != nil {
		if cfg.Metrics != nil {
			cfg.Metrics.Counter(metrics.TransportHandshakeFailures).Inc()
		}
		nc.Close()
		return nil, err
	}
	return c, nil
}

// Addr returns the remote peer's address.
func (c *Client) Addr() string { return c.nc.Addr() }

// LastError returns the most recent transport failure against this peer
// ("" when the last exchange succeeded); /healthz surfaces it per peer.
func (c *Client) LastError() string { return c.nc.LastError() }

// Hello returns the remote peer's handshake info, exchanged at Dial.
func (c *Client) Hello() HelloInfo { return c.hello }

// newFrame starts a request for op in a pooled frame addressed to the
// client's channel, with traceID in the frame header so the serving process
// joins the sender's trace, and layout's bytes (none when nil) after the op
// byte. The caller releases the frame.
func (c *Client) newFrame(op network.Op, traceID string, layout func([]byte) []byte) network.Frame {
	f := network.NewFrame(traceID, c.cfg.Channel)
	f.B = append(f.B, op.Code)
	if layout != nil {
		f.B = layout(f.B)
	}
	return f
}

// roundTrip sends one request and returns a cursor over the reply's layout,
// past the status. A reply whose status is a failure is returned as its
// *RemoteError; like a reply that does not decode, it leaves the connection
// in sync — the frame boundary held.
func (c *Client) roundTrip(op network.Op, traceID string, layout func([]byte) []byte) (*codec.Dec, error) {
	start := time.Now()
	defer func() {
		if c.cfg.Metrics != nil {
			// The per-op suffix is drawn from the transport's closed protocol
			// vocabulary (hello, height, blocksFrom, ...), never from peer
			// input, so the family count is bounded by the protocol.
			//hyperprov:allow metricnames op suffix is the closed protocol vocabulary, not peer input
			c.cfg.Metrics.Histogram(metrics.TransportRPC + "_" + op.Name).Observe(time.Since(start))
		}
	}()
	// The request is encoded once; a redial resends the same frame.
	f := c.newFrame(op, traceID, layout)
	defer f.Release()
	body, err := c.nc.Do(f)
	if err != nil {
		return nil, fmt.Errorf("transport: %s: %w", op.Name, err)
	}
	d := codec.NewDec(body)
	return d, replyStatus(d)
}

// finish closes the decode of an op's reply: trailing or missing bytes are
// reported against the op and the peer.
func (c *Client) finish(op network.Op, d *codec.Dec) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("transport: %s reply from %s: %w", op.Name, c.Addr(), err)
	}
	return nil
}

// Height probes the remote peer's committed height.
func (c *Client) Height() (uint64, error) {
	d, err := c.roundTrip(opHeight, "", nil)
	if err != nil {
		return 0, err
	}
	return decodeHeight(d), c.finish(opHeight, d)
}

// Blocks streams the remote peer's blocks with number >= from, one block
// per frame, handing each to fn as its frame arrives — in a buffer of its
// own that the decoded block aliases for as long as the caller keeps it. The
// stream holds the client's one connection while fn runs. An error from fn,
// a torn frame or an undecodable block drops the connection and is
// returned; the blocks fn already had are an in-order prefix, safe to
// commit, and the next anti-entropy round fetches the rest.
func (c *Client) Blocks(from uint64, fn func(*blockstore.Block) error) error {
	f := c.newFrame(opBlocksFrom, "", func(b []byte) []byte { return codec.AppendUvarint(b, from) })
	defer f.Release()
	var remote *RemoteError
	err := c.nc.Stream(f, false, func(body []byte) (bool, error) {
		b, err := decodeStreamFrame(body)
		if errors.As(err, &remote) {
			return false, nil // a failure status is the whole reply: the stream is in sync
		}
		if b == nil || err != nil {
			return false, err
		}
		return true, fn(b)
	})
	switch {
	case err != nil:
		return fmt.Errorf("transport: blocksFrom stream: %w", err)
	case remote != nil:
		return remote
	}
	return nil
}

// BlocksFrom collects Blocks(from) into one slice, returned with the error
// as the in-order prefix received. It is kept only for the benchmark
// module, which still reads whole tails; it goes once that module moves to
// Blocks.
func (c *Client) BlocksFrom(from uint64) ([]*blockstore.Block, error) {
	var blocks []*blockstore.Block
	err := c.Blocks(from, func(b *blockstore.Block) error { blocks = append(blocks, b); return nil })
	return blocks, err
}

// Deliver pushes one block to the remote peer's commit pipeline, encoded in
// the canonical binary form straight into the frame (the receiving pipeline
// reuses those exact bytes for hashing and persistence).
func (c *Client) Deliver(b *blockstore.Block) error {
	d, err := c.roundTrip(opDeliver, blockTraceID(b), func(buf []byte) []byte { return blockstore.AppendBlock(buf, b) })
	if err != nil {
		return err
	}
	return c.finish(opDeliver, d)
}

// SyncRemote waits until the remote peer has persisted every block it
// accepted, returning its post-sync height.
func (c *Client) SyncRemote() (uint64, error) {
	d, err := c.roundTrip(opSync, "", nil)
	if err != nil {
		return 0, err
	}
	return decodeHeight(d), c.finish(opSync, d)
}

// ProcessProposal endorses a proposal on the remote peer. The signature
// matches the local peer's, so a gateway asks local and remote endorsers
// interchangeably. The remote host refuses, with CodeBadRequest, a proposal
// naming another channel than the one this client's frames resolve to.
func (c *Client) ProcessProposal(prop *endorser.Proposal) (*endorser.Response, error) {
	d, err := c.roundTrip(opEndorse, prop.TxID, func(buf []byte) []byte { return appendProposal(buf, prop) })
	if err != nil {
		return nil, err
	}
	resp, span := decodeEndorsement(d)
	if err := c.finish(opEndorse, d); err != nil {
		return nil, err
	}
	// The serving peer measured its endorse span and shipped it back; join
	// it into this process's trace, marked as the remote hop.
	if c.cfg.Tracer != nil {
		span.Remote = true
		c.cfg.Tracer.Add(prop.TxID, span)
	}
	return resp, nil
}

// Close closes the connection; in-flight calls fail and future calls
// error immediately.
func (c *Client) Close() error { return c.nc.Close() }

// Member wraps the client as a gossip.Member, so a remote peer joins an
// in-process gossip.Network unchanged: height probes, pulls, and block
// deliveries to this member all cross the TCP connection. Errors are
// swallowed into "no progress this round" — anti-entropy's periodic pulls
// are the retry loop.
type Member struct {
	c    *Client
	name string

	// lastHeight caches the most recent successful probe. During an
	// outage Height reports this instead of 0: reporting 0 would make a
	// gossip puller recompute its fetch window from genesis and re-push
	// the entire chain over the shaped link once the peer comes back.
	mu         sync.Mutex
	lastHeight uint64
}

var _ gossip.Member = (*Member)(nil)

// Member returns the gossip adapter for this client, naming it after the
// remote peer from the hello handshake.
func (c *Client) Member() *Member {
	return &Member{c: c, name: c.hello.Name, lastHeight: c.hello.Height}
}

// Name returns the remote peer's name.
func (m *Member) Name() string { return m.name }

// Client returns the underlying transport client.
func (m *Member) Client() *Client { return m.c }

// Height probes the remote height; an unreachable peer reports the last
// height it was seen at (pull attempts against it fail cleanly, and the
// window stays correct for when it returns).
func (m *Member) Height() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, err := m.c.Height()
	if err != nil {
		return m.lastHeight
	}
	m.lastHeight = h
	return h
}

// Blocks streams blocks from the remote peer into fn as their frames
// arrive. A mid-stream failure leaves fn with an in-order prefix, safe to
// deliver.
func (m *Member) Blocks(from uint64, fn func(*blockstore.Block) error) error {
	return m.c.Blocks(from, fn)
}

// DeliverBlock pushes a block to the remote peer; a delivery failure is
// dropped (the remote will pull the block on a later round).
func (m *Member) DeliverBlock(b *blockstore.Block) {
	_ = m.c.Deliver(b)
}

// Sync flushes the remote peer's commit pipeline after a delivered batch.
func (m *Member) Sync() {
	_, _ = m.c.SyncRemote()
}
