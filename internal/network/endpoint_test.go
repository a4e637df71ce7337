package network

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/metrics"
)

// echoServer answers every frame with its own body, counts the connections
// it accepted, and records each request as header extensions + body.
type echoServer struct {
	*Server
	conns atomic.Int32
	mu    sync.Mutex
	seen  []string
}

func (e *echoServer) serve(conn net.Conn) {
	e.conns.Add(1)
	in := bufio.NewReader(conn)
	for {
		body, trace, channel, err := ReadFrameExt(in)
		if err != nil {
			return
		}
		e.mu.Lock()
		e.seen = append(e.seen, fmt.Sprintf("%s|%s|%s", trace, channel, body))
		e.mu.Unlock()
		if WriteFrameExt(conn, "", "", body) != nil {
			return
		}
	}
}

func (e *echoServer) requests() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.seen...)
}

// listenEcho binds addr, retrying briefly: after a Close the OS may hold the
// port.
func listenEcho(t *testing.T, addr string) *echoServer {
	t.Helper()
	e := &echoServer{}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var err error
		if e.Server, err = listen(addr, e.serve); err == nil {
			t.Cleanup(func() { e.Close() })
			return e
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
	}
}

func dialTest(t *testing.T, addr string, cfg ClientConfig) *Client {
	t.Helper()
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func frameOf(trace, channel, body string) Frame {
	f := NewFrame(trace, channel)
	f.B = append(f.B, body...)
	return f
}

// openGate lets the next call dial at once instead of waiting out the
// backoff window.
func openGate(c *Client) {
	c.mu.Lock()
	c.nextDial = time.Time{}
	c.mu.Unlock()
}

// TestServerCloseWithIdleClient: Close must not wait for clients to hang up.
// A connected, idle client pins its handler in a frame read; Close closes the
// connection under it, returns promptly, and is idempotent. The client's next
// exchange fails over to a redial — which finds nobody listening — instead of
// hanging.
func TestServerCloseWithIdleClient(t *testing.T) {
	e := listenEcho(t, "127.0.0.1:0")
	c := dialTest(t, e.Addr(), ClientConfig{})
	f := frameOf("", "", "connected")
	defer f.Release()
	if _, err := c.Do(f); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close still blocked after 5s with one idle client connected")
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	failed := make(chan error, 1)
	go func() {
		_, err := c.Do(f)
		failed <- err
	}()
	select {
	case err := <-failed:
		if err == nil {
			t.Error("Do against a closed server succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do against a closed server hangs")
	}
}

// TestAcceptDuringCloseIsNotServed: a connection the accept loop picks up
// after Close has marked the server closed is closed, never handed to serve.
func TestAcceptDuringCloseIsNotServed(t *testing.T) {
	var served atomic.Int32
	s, err := listen("127.0.0.1:0", func(net.Conn) { served.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	// Close's first step, frozen: closed is set, the listener still open.
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read on a connection accepted during Close: %v, want EOF", err)
	}
	s.ln.Close()
	s.wg.Wait()
	if n := served.Load(); n != 0 {
		t.Errorf("serve ran %d times for a connection accepted during Close", n)
	}
}

// TestDoRedialsAndResendsSameFrame: the server restarts on the same address;
// the next Do finds the old connection dead, redials once, and sends the
// identical frame — extensions included — again.
func TestDoRedialsAndResendsSameFrame(t *testing.T) {
	e := listenEcho(t, "127.0.0.1:0")
	reg := metrics.NewRegistry()
	c := dialTest(t, e.Addr(), ClientConfig{Metrics: reg})
	f := frameOf("tx-1", "ch-a", "same bytes")
	defer f.Release()
	if _, err := c.Do(f); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), f.B...)
	e.Close()
	e2 := listenEcho(t, e.Addr())
	reply, err := c.Do(f)
	if err != nil || string(reply) != "same bytes" {
		t.Fatalf("Do after restart = %q, %v", reply, err)
	}
	if !bytes.Equal(f.B, wire) {
		t.Errorf("frame bytes changed across the redial:\n%x\n%x", wire, f.B)
	}
	if first, again := e.requests(), e2.requests(); len(again) != 1 || again[0] != first[0] {
		t.Errorf("restarted server saw %q, first server saw %q", again, first)
	}
	if got := reg.Snapshot()[metrics.TransportReconnects]; got != 1 {
		t.Errorf("transport_reconnects = %d, want exactly 1", got)
	}
}

// TestBackoffGate: a failed dial returns the dial error and opens the gate;
// inside it calls return ErrBackoff without touching the network; each
// further failed dial doubles the gate up to MaxBackoff; a success resets it.
func TestBackoffGate(t *testing.T) {
	e := listenEcho(t, "127.0.0.1:0")
	addr := e.Addr()
	c := dialTest(t, addr, ClientConfig{MinBackoff: time.Minute, MaxBackoff: 4 * time.Minute})
	f := frameOf("", "", "ping")
	defer f.Release()
	e.Close()

	_, err := c.Do(f)
	var opErr *net.OpError
	if !errors.As(err, &opErr) || errors.Is(err, ErrBackoff) {
		t.Fatalf("Do against a dead address: %v, want the dial error", err)
	}
	// Somebody is listening again, but the gate is shut: no dial happens.
	e2 := listenEcho(t, addr)
	start := time.Now()
	if _, err := c.Do(f); !errors.Is(err, ErrBackoff) {
		t.Errorf("Do inside the gate: %v, want ErrBackoff", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("ErrBackoff took %v", elapsed)
	}
	if n := e2.conns.Load(); n != 0 {
		t.Errorf("a call inside the gate opened %d connections", n)
	}
	e2.Close()

	for _, want := range []time.Duration{2 * time.Minute, 4 * time.Minute, 4 * time.Minute} {
		openGate(c)
		if _, err := c.Do(f); err == nil || errors.Is(err, ErrBackoff) {
			t.Fatalf("Do against a dead address: %v, want the dial error", err)
		}
		if c.backoff != want {
			t.Errorf("backoff = %v, want %v", c.backoff, want)
		}
	}
	listenEcho(t, addr)
	openGate(c)
	if _, err := c.Do(f); err != nil {
		t.Fatalf("Do after the peer came back: %v", err)
	}
	if c.backoff != 0 || !c.nextDial.IsZero() {
		t.Errorf("after a success backoff = %v, nextDial = %v; want both zero", c.backoff, c.nextDial)
	}
}

// TestStreamDoesNotRedialMidReply: once a reply frame has arrived a failure
// is final — resending would replay the frames already consumed — and the
// connection is dropped. Before the first frame, the redial flag decides.
func TestStreamDoesNotRedialMidReply(t *testing.T) {
	var conns atomic.Int32
	s, err := listen("127.0.0.1:0", func(conn net.Conn) {
		conns.Add(1)
		if _, err := ReadFrame(bufio.NewReader(conn)); err == nil {
			_ = WriteFrameExt(conn, "", "", []byte("one of two"))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialTest(t, s.Addr(), ClientConfig{})
	f := frameOf("", "", "stream")
	defer f.Release()
	var got []string
	err = c.Stream(f, true, func(body []byte) (bool, error) {
		got = append(got, string(body))
		return true, nil
	})
	if err == nil || len(got) != 1 {
		t.Fatalf("Stream = %v after frames %q; want an error after one frame", err, got)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("server saw %d connections: Stream redialled after the first reply frame", n)
	}
	if c.conn != nil {
		t.Error("connection kept after a mid-reply failure")
	}
	if c.LastError() == "" {
		t.Error("LastError empty after a mid-reply failure")
	}

	// An error from each drops the connection too: the rest of the reply is
	// unread.
	boom := errors.New("undecodable block")
	if err := c.Stream(f, false, func([]byte) (bool, error) { return true, boom }); !errors.Is(err, boom) {
		t.Errorf("Stream = %v, want each's error", err)
	}
	if c.conn != nil {
		t.Error("connection kept after each failed")
	}
}

// TestOversizedReply: a reply announcing more than MaxFrame surfaces
// ErrFrameTooLarge (twice over: the one redial meets the same server).
func TestOversizedReply(t *testing.T) {
	s, err := listen("127.0.0.1:0", func(conn net.Conn) {
		_, _ = ReadFrame(bufio.NewReader(conn))
		_, _ = conn.Write([]byte{0x3F, 0xFF, 0xFF, 0xFF})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialTest(t, s.Addr(), ClientConfig{})
	f := frameOf("", "", "ping")
	defer f.Release()
	if _, err := c.Do(f); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized reply: %v, want ErrFrameTooLarge", err)
	}
}

// TestLastErrorSetAndCleared: a failure is retained — through the backoff
// window, where the cause would otherwise be swallowed — and the next success
// clears it.
func TestLastErrorSetAndCleared(t *testing.T) {
	e := listenEcho(t, "127.0.0.1:0")
	c := dialTest(t, e.Addr(), ClientConfig{MinBackoff: time.Minute})
	f := frameOf("", "", "ping")
	defer f.Release()
	if _, err := c.Do(f); err != nil || c.LastError() != "" {
		t.Fatalf("Do = %v, LastError = %q", err, c.LastError())
	}
	e.Close()
	_, err := c.Do(f)
	if err == nil || c.LastError() != err.Error() {
		t.Fatalf("Do = %v, LastError = %q", err, c.LastError())
	}
	if _, again := c.Do(f); !errors.Is(again, ErrBackoff) || c.LastError() != err.Error() {
		t.Errorf("inside the gate: Do = %v, LastError = %q; want ErrBackoff and the dial failure kept", again, c.LastError())
	}
	listenEcho(t, e.Addr())
	openGate(c)
	if _, err := c.Do(f); err != nil || c.LastError() != "" {
		t.Errorf("after recovery: Do = %v, LastError = %q", err, c.LastError())
	}
}

// TestUseAfterClose: a closed client stays closed and dials nothing.
func TestUseAfterClose(t *testing.T) {
	e := listenEcho(t, "127.0.0.1:0")
	c := dialTest(t, e.Addr(), ClientConfig{})
	f := frameOf("", "", "ping")
	defer f.Release()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(f); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Do after Close: %v, want ErrClientClosed", err)
	}
	if c.conn != nil {
		t.Error("Do after Close opened a connection")
	}
}

// TestConcurrentDoInterleavesWholeExchanges: two goroutines share one client;
// each must read the reply to its own request, every time.
func TestConcurrentDoInterleavesWholeExchanges(t *testing.T) {
	e := listenEcho(t, "127.0.0.1:0")
	c := dialTest(t, e.Addr(), ClientConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				want := fmt.Sprintf("goroutine %d request %d", g, i)
				f := frameOf("", "", want)
				reply, err := c.Do(f)
				f.Release()
				if err != nil || string(reply) != want {
					t.Errorf("Do(%q) = %q, %v", want, reply, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := e.conns.Load(); n != 1 {
		t.Errorf("server saw %d connections, want 1", n)
	}
}
