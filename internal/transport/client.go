package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/gossip"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// ErrBackoff is returned when a request arrives while the client is
// holding off redialling a dead peer; the caller should simply try again
// later (gossip does, every round).
var ErrBackoff = errors.New("transport: peer unreachable, backing off")

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

func (c ClientConfig) withDefaults() ClientConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 3 * time.Second
	}
	if c.MinBackoff <= 0 {
		c.MinBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	return c
}

// Client is one peer's view of a remote peer: a single TCP connection,
// request/response exchanges serialized over it, and reconnect-with-backoff
// when the remote drops. A failure on an established connection triggers
// one immediate redial (the usual case: the peer restarted); failed dials
// back off exponentially so a dead peer costs a cheap time check per
// gossip round, not a connect timeout.
type Client struct {
	addr string
	cfg  ClientConfig

	mu       sync.Mutex
	conn     net.Conn
	shaped   *network.ShapedConn
	hello    HelloInfo
	helloOK  bool
	backoff  time.Duration
	nextDial time.Time
	closed   bool

	// everConnected distinguishes a reconnect (a previously working peer
	// came back) from the first dial, for the reconnect counter.
	everConnected bool
	// lastErr keeps the most recent transport failure so the backoff path
	// no longer swallows the reason; /healthz surfaces it per peer.
	lastErr string
}

// Dial connects to a serving peer and performs the hello handshake.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	c := &Client{addr: addr, cfg: cfg.withDefaults()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	if err := c.helloLocked(); err != nil {
		c.dropConnLocked()
		return nil, err
	}
	return c, nil
}

// Addr returns the remote peer's address.
func (c *Client) Addr() string { return c.addr }

// LastError returns the most recent transport failure against this peer
// ("" when the last operation succeeded). Dial failures during backoff and
// handshake rejections land here instead of being silently swallowed.
func (c *Client) LastError() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// setErrLocked records a failure for LastError; nil clears it.
func (c *Client) setErrLocked(err error) {
	if err == nil {
		c.lastErr = ""
	} else {
		c.lastErr = err.Error()
	}
}

// count bumps a transport counter when metrics are configured. Every call
// site passes one of the metrics.Transport* constants, so the counter
// family set stays fixed.
func (c *Client) count(name string) {
	if c.cfg.Metrics != nil {
		//hyperprov:allow metricnames constant Transport* names forwarded by call sites
		c.cfg.Metrics.Counter(name).Inc()
	}
}

// countingConn counts bytes crossing the wire in each direction.
type countingConn struct {
	net.Conn
	reg *metrics.Registry
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	if n > 0 {
		cc.reg.Counter(metrics.TransportBytesReceived).Add(int64(n))
	}
	return n, err
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	if n > 0 {
		cc.reg.Counter(metrics.TransportBytesSent).Add(int64(n))
	}
	return n, err
}

// Hello returns the remote peer's handshake info, performing the exchange
// if it has not happened yet (e.g. after Dial-time info was requested
// again post-restart).
func (c *Client) Hello() (HelloInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.helloOK {
		return c.hello, nil
	}
	if err := c.ensureConnLocked(); err != nil {
		return HelloInfo{}, err
	}
	if err := c.helloLocked(); err != nil {
		c.dropConnLocked()
		return HelloInfo{}, err
	}
	return c.hello, nil
}

// helloLocked exchanges the handshake on the current connection.
func (c *Client) helloLocked() error {
	f := c.newFrame(&request{op: opHello})
	defer f.Release()
	d, err := c.exchangeLocked(f)
	if err == nil {
		c.hello = decodeHello(d)
		err = d.Finish()
	}
	if err != nil {
		var remote *RemoteError
		if !errors.As(err, &remote) {
			err = fmt.Errorf("transport: hello %s: %w", c.addr, err)
		}
		c.count(metrics.TransportHandshakeFailures)
		c.setErrLocked(err)
		return err
	}
	c.helloOK = true
	return nil
}

// connectLocked dials the remote, respecting the backoff gate.
func (c *Client) connectLocked() error {
	if c.closed {
		return errors.New("transport: client closed")
	}
	if !c.nextDial.IsZero() && time.Now().Before(c.nextDial) {
		return fmt.Errorf("%w: %s", ErrBackoff, c.addr)
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		if c.backoff == 0 {
			c.backoff = c.cfg.MinBackoff
		} else {
			c.backoff *= 2
			if c.backoff > c.cfg.MaxBackoff {
				c.backoff = c.cfg.MaxBackoff
			}
		}
		c.nextDial = time.Now().Add(c.backoff)
		err = fmt.Errorf("transport: dial %s: %w", c.addr, err)
		c.setErrLocked(err)
		return err
	}
	if c.cfg.Metrics != nil {
		conn = &countingConn{Conn: conn, reg: c.cfg.Metrics}
	}
	c.conn = conn
	c.shaped = network.NewShapedConn(conn, c.cfg.Shape)
	c.backoff = 0
	c.nextDial = time.Time{}
	if c.everConnected {
		c.count(metrics.TransportReconnects)
	}
	c.everConnected = true
	c.setErrLocked(nil)
	return nil
}

func (c *Client) ensureConnLocked() error {
	if c.conn != nil {
		return nil
	}
	return c.connectLocked()
}

func (c *Client) dropConnLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.shaped = nil
	}
}

// newFrame encodes req into a pooled frame addressed to the client's
// channel, with the request's trace ID in the frame header so the serving
// process joins the sender's trace. The caller releases the frame.
func (c *Client) newFrame(req *request) network.Frame {
	f := network.NewFrame(req.traceID(), c.cfg.Channel)
	f.B = appendRequest(f.B, req)
	return f
}

// exchangeLocked writes one request frame and reads one reply on the
// current connection. It returns a cursor over the reply's layout, past the
// status: a reply whose status is a failure is returned as its *RemoteError,
// which — unlike every other error here — leaves the connection in sync.
func (c *Client) exchangeLocked(f network.Frame) (*codec.Dec, error) {
	if err := f.Send(c.shaped); err != nil {
		return nil, err
	}
	c.count(metrics.TransportFramesSent)
	body, err := network.ReadFrame(c.conn)
	if err != nil {
		return nil, err
	}
	c.count(metrics.TransportFramesReceived)
	d := codec.NewDec(body)
	return d, replyStatus(d)
}

// roundTrip sends one request and returns a cursor over the reply's layout,
// redialling once when an established connection turns out to be dead.
func (c *Client) roundTrip(req *request) (*codec.Dec, error) {
	start := time.Now()
	defer func() {
		if c.cfg.Metrics != nil {
			// The per-op suffix is drawn from the transport's closed protocol
			// vocabulary (hello, height, blocksFrom, ...), never from peer
			// input, so the family count is bounded by the protocol.
			//hyperprov:allow metricnames op suffix is the closed protocol vocabulary, not peer input
			c.cfg.Metrics.Histogram(metrics.TransportRPC + "_" + req.op.String()).Observe(time.Since(start))
		}
	}()
	// The request is encoded once, outside the lock; a redial resends the
	// same frame.
	f := c.newFrame(req)
	defer f.Release()
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if err := c.ensureConnLocked(); err != nil {
			return nil, err
		}
		d, err := c.exchangeLocked(f)
		var remote *RemoteError
		if err == nil || errors.As(err, &remote) {
			c.setErrLocked(nil)
			return d, err
		}
		c.dropConnLocked()
		if attempt > 0 {
			err = fmt.Errorf("transport: %s %s: %w", req.op, c.addr, err)
			c.setErrLocked(err)
			return nil, err
		}
	}
}

// finish closes the decode of an op's reply: trailing or missing bytes are
// reported against the op and the peer.
func (c *Client) finish(op opCode, d *codec.Dec) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("transport: %s reply from %s: %w", op, c.addr, err)
	}
	return nil
}

// Height probes the remote peer's committed height.
func (c *Client) Height() (uint64, error) {
	d, err := c.roundTrip(&request{op: opHeight})
	if err != nil {
		return 0, err
	}
	return decodeHeight(d), c.finish(opHeight, d)
}

// BlocksFrom streams the remote peer's blocks with number >= from, one
// block per frame. On a mid-stream failure it returns the in-order prefix
// received so far together with the error: the prefix is safe to commit,
// and the next anti-entropy round fetches the rest.
func (c *Client) BlocksFrom(from uint64) ([]*blockstore.Block, error) {
	f := c.newFrame(&request{op: opBlocksFrom, from: from})
	defer f.Release()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConnLocked(); err != nil {
		return nil, err
	}
	// broken drops the connection: past a torn frame or an undecodable block
	// the stream is unusable; the in-order prefix is still safe to commit.
	broken := func(blocks []*blockstore.Block, err error) ([]*blockstore.Block, error) {
		c.dropConnLocked()
		err = fmt.Errorf("transport: blocksFrom stream %s: %w", c.addr, err)
		c.setErrLocked(err)
		return blocks, err
	}
	if err := f.Send(c.shaped); err != nil {
		return broken(nil, err)
	}
	c.count(metrics.TransportFramesSent)
	var blocks []*blockstore.Block
	for {
		// One buffer per frame: the decoded block aliases it for as long as
		// the peer keeps the block.
		body, err := network.ReadFrame(c.conn)
		if err != nil {
			return broken(blocks, err)
		}
		c.count(metrics.TransportFramesReceived)
		b, err := decodeStreamFrame(body)
		var remote *RemoteError
		switch {
		case errors.As(err, &remote):
			return blocks, err
		case err != nil:
			return broken(blocks, err)
		case b == nil:
			return blocks, nil
		}
		blocks = append(blocks, b)
	}
}

// Deliver pushes one block to the remote peer's commit pipeline, encoded in
// the canonical binary form straight into the frame (the receiving pipeline
// reuses those exact bytes for hashing and persistence).
func (c *Client) Deliver(b *blockstore.Block) error {
	d, err := c.roundTrip(&request{op: opDeliver, block: b})
	if err != nil {
		return err
	}
	return c.finish(opDeliver, d)
}

// SyncRemote waits until the remote peer has persisted every block it
// accepted, returning its post-sync height.
func (c *Client) SyncRemote() (uint64, error) {
	d, err := c.roundTrip(&request{op: opSync})
	if err != nil {
		return 0, err
	}
	return decodeHeight(d), c.finish(opSync, d)
}

// ProcessProposal endorses a proposal on the remote peer. The signature
// matches the local peer's, so a gateway fans proposals to local and
// remote endorsers interchangeably.
func (c *Client) ProcessProposal(prop *endorser.Proposal) (*endorser.Response, error) {
	d, err := c.roundTrip(&request{op: opEndorse, proposal: prop})
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

// Query runs a read-only chaincode invocation on the remote peer.
func (c *Client) Query(chaincode, fn string, args [][]byte, creator []byte) (shim.Response, error) {
	d, err := c.roundTrip(&request{
		op: opQuery, chaincode: chaincode, function: fn, args: args, creator: creator,
	})
	if err != nil {
		return shim.Response{}, err
	}
	return decodeQueryReply(d), c.finish(opQuery, d)
}

// Fingerprint returns the remote peer's committed state fingerprint and
// height (the convergence check for multi-process deployments).
func (c *Client) Fingerprint() (string, uint64, error) {
	d, err := c.roundTrip(&request{op: opFingerprint})
	if err != nil {
		return "", 0, err
	}
	fp, height := decodeFingerprint(d)
	return fp, height, c.finish(opFingerprint, d)
}

// Close closes the connection; in-flight calls fail and future calls
// error immediately.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		c.shaped = nil
		return err
	}
	return nil
}

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

var (
	_ gossip.Member = (*Member)(nil)
	_ gossip.Syncer = (*Member)(nil)
)

// Member returns the gossip adapter for this client, naming it after the
// remote peer from the hello handshake.
func (c *Client) Member() (*Member, error) {
	info, err := c.Hello()
	if err != nil {
		return nil, err
	}
	return &Member{c: c, name: info.Name, lastHeight: info.Height}, nil
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

// BlocksFrom streams blocks from the remote peer. A mid-stream failure
// yields the received prefix — in-order, so safe to deliver.
func (m *Member) BlocksFrom(from uint64) []*blockstore.Block {
	blocks, _ := m.c.BlocksFrom(from)
	return blocks
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
