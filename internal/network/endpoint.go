package network

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/metrics"
)

// This file is the TCP endpoint every service here stands on: the listening
// half (Listen: accept loop, tracked connections, Close) and the calling half
// (Dial: one connection, whole exchanges serialized over it, redial with
// backoff). A service brings what differs — its op table and codecs; the
// table runs each connection (table.go).

// Server is a TCP listener that serves its op table on every connection it
// accepts.
type Server struct {
	ln    net.Listener
	serve func(net.Conn)

	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Listen starts a server on addr ("127.0.0.1:0" for an ephemeral port) that
// serves table on every connection it accepts, and closes the connection
// when the table is done with it.
func Listen(addr string, table *Table) (*Server, error) { return listen(addr, table.Serve) }

// listen starts a server that runs serve on every connection it accepts.
func listen(addr string, serve func(net.Conn)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, serve: serve, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, closes every open connection — a handler blocked
// reading from an idle client would otherwise hold Close for as long as the
// client stays connected — and waits for the handlers to drain. A second
// Close is a no-op.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serve(conn)
		}()
	}
}

// countingConn counts bytes crossing the wire in each direction.
type countingConn struct {
	net.Conn
	reg *metrics.Registry
}

// CountConn wraps conn so every byte read or written lands in reg's
// metrics.TransportBytesReceived / TransportBytesSent counters; with a nil
// registry it returns conn unchanged.
func CountConn(conn net.Conn, reg *metrics.Registry) net.Conn {
	if reg == nil {
		return conn
	}
	return &countingConn{Conn: conn, reg: reg}
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

// ErrBackoff is returned when a request arrives while the client is holding
// off redialling a dead peer; the caller should simply try again later
// (gossip does, every round).
var ErrBackoff = errors.New("network: peer unreachable, backing off")

// ErrClientClosed is returned by every call on a Client after Close.
var ErrClientClosed = errors.New("network: client closed")

// ClientConfig tunes a Client.
type ClientConfig struct {
	// Shape is applied to the client's writes (its uplink); zero means
	// unshaped.
	Shape LinkShape
	// DialTimeout bounds one TCP connect attempt; 0 means 3s.
	DialTimeout time.Duration
	// MinBackoff/MaxBackoff bound the exponential redial backoff after a
	// failed dial; 0 means 50ms / 2s.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Metrics, when set, receives the transport counters: frames and bytes
	// in each direction, and reconnects.
	Metrics *metrics.Registry
}

// Client is one side's view of a remote Server: a single TCP connection,
// exchanges serialized over it, and reconnect-with-backoff when the remote
// drops. A failure on an established connection triggers one immediate
// redial (the usual case: the peer restarted); failed dials back off
// exponentially so a dead peer costs a cheap time check per call, not a
// connect timeout.
type Client struct {
	addr string
	cfg  ClientConfig

	mu       sync.Mutex
	conn     net.Conn
	in       *bufio.Reader // reads conn
	shaped   *ShapedConn
	backoff  time.Duration
	nextDial time.Time
	closed   bool

	// everConnected distinguishes a reconnect (a previously working peer
	// came back) from the first dial, for the reconnect counter.
	everConnected bool
	// lastErr keeps the most recent failure so the backoff path does not
	// swallow the reason; /healthz surfaces it per peer.
	lastErr string
}

// Dial connects to the server at addr.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	c := &Client{addr: addr, cfg: cfg}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr returns the remote address.
func (c *Client) Addr() string { return c.addr }

// LastError returns the most recent failure against this peer ("" when the
// last exchange succeeded). Dial failures during backoff land here instead
// of being silently swallowed.
func (c *Client) LastError() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// count bumps a transport counter in reg, if there is one. Every call site
// passes one of the metrics.Transport* constants, so the counter family set
// stays fixed.
func count(reg *metrics.Registry, name string) {
	if reg != nil {
		//hyperprov:allow metricnames constant Transport* names forwarded by call sites
		reg.Counter(name).Inc()
	}
}

// connectLocked makes sure there is a connection, dialling — behind the
// backoff gate — when there is none.
func (c *Client) connectLocked() error {
	if c.closed {
		return ErrClientClosed
	}
	if c.conn != nil {
		return nil
	}
	if !c.nextDial.IsZero() && time.Now().Before(c.nextDial) {
		return fmt.Errorf("%w: %s", ErrBackoff, c.addr)
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		c.backoff = min(max(2*c.backoff, c.cfg.MinBackoff), c.cfg.MaxBackoff)
		c.nextDial = time.Now().Add(c.backoff)
		return c.failLocked(fmt.Errorf("network: dial %s: %w", c.addr, err))
	}
	c.conn = CountConn(conn, c.cfg.Metrics)
	c.in = bufio.NewReader(c.conn)
	c.shaped = NewShapedConn(c.conn, c.cfg.Shape)
	c.backoff = 0
	c.nextDial = time.Time{}
	if c.everConnected {
		count(c.cfg.Metrics, metrics.TransportReconnects)
	}
	c.everConnected = true
	c.lastErr = ""
	return nil
}

// failLocked drops the connection — after a transport failure it is out of
// sync or dead — and records err for LastError.
func (c *Client) failLocked(err error) error {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.in, c.shaped = nil, nil, nil
	}
	c.lastErr = err.Error()
	return err
}

// Do sends f and returns the one frame the server answers it with; the
// caller owns the reply. A dead connection is redialled once and the same
// frame sent again. What the reply says is the caller's business: a reply
// that arrived whole leaves the connection in sync whether or not it
// decodes.
func (c *Client) Do(f Frame) (reply []byte, err error) {
	err = c.Stream(f, true, func(body []byte) (bool, error) {
		reply = body
		return false, nil
	})
	return reply, err
}

// Stream sends f and hands each reply frame to each — in a buffer of its
// own, which each may keep — until each reports that no more follow. With
// redial set, a connection that fails before the first reply frame is
// redialled once and f sent again; past the first frame a failure is final.
// An error from each means the rest of the reply cannot be made sense of,
// so, like a torn or oversized frame, it drops the connection.
func (c *Client) Stream(f Frame, redial bool, each func(body []byte) (more bool, err error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if err := c.connectLocked(); err != nil {
			return err
		}
		started, err := c.exchangeLocked(f, each)
		if err == nil {
			c.lastErr = ""
			return nil
		}
		err = c.failLocked(fmt.Errorf("network: exchange with %s: %w", c.addr, err))
		if !redial || started {
			return err
		}
		redial = false
	}
}

// exchangeLocked writes f on the current connection and feeds the reply
// frames to each. started reports whether a reply frame had arrived when
// the exchange ended.
func (c *Client) exchangeLocked(f Frame, each func([]byte) (bool, error)) (started bool, err error) {
	if err := f.Send(c.shaped); err != nil {
		return false, err
	}
	count(c.cfg.Metrics, metrics.TransportFramesSent)
	for {
		body, err := ReadFrame(c.in)
		if err != nil {
			return started, err
		}
		count(c.cfg.Metrics, metrics.TransportFramesReceived)
		started = true
		if more, err := each(body); err != nil || !more {
			return true, err
		}
	}
}

// Close closes the connection; every later call returns ErrClientClosed
// without touching the network.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.in, c.shaped = nil, nil, nil
	return err
}
