package offchain

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/network"
)

// writeFrame writes body as one frame, the way a client sends a request and
// a server its reply.
func writeFrame(w io.Writer, body []byte) error {
	f := network.NewFrame("", "")
	defer f.Release()
	f.B = append(f.B, body...)
	return f.Send(w)
}

// rawServer runs serve on every connection to a loopback listener of its
// own, for a test that plays a server the op table would not be: one that
// counts connections, or answers with a torn reply.
func rawServer(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

func newRemotePair(t *testing.T, shape network.LinkShape) (*Server, *RemoteStore) {
	t.Helper()
	backing := NewMemStore()
	srv, err := NewServer("127.0.0.1:0", backing, shape)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := NewRemoteStore(srv.Addr(), shape)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return srv, client
}

func TestRemoteStoreSuite(t *testing.T) {
	_, client := newRemotePair(t, network.LinkShape{})
	storeSuite(t, client)
}

func TestRemoteNotFound(t *testing.T) {
	srv, client := newRemotePair(t, network.LinkShape{})
	_, err := client.Get("remote://" + srv.Addr() + "/mem://sha256:" + strings64("0"))
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

// TestRemoteErrorCodes pins the structured error classification: the
// server reports machine-readable codes (shared with the peer transport)
// and the client maps them to sentinel errors without inspecting message
// text. A server whose error strings change cannot break the mapping.
func TestRemoteErrorCodes(t *testing.T) {
	backing := NewMemStore()
	srv, err := NewServer("127.0.0.1:0", backing, network.LinkShape{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	for _, tc := range []struct {
		name string
		err  error
		code network.ErrCode
	}{
		{"not found", ErrNotFound, network.CodeNotFound},
		{"checksum", ErrChecksumMismatch, network.CodeChecksumMismatch},
		{"bad ref", ErrBadRef, network.CodeBadRequest},
		{"other", errors.New("disk on fire"), network.CodeInternal},
	} {
		if got := classify(tc.err); got != tc.code {
			t.Errorf("classify(%s) = %q, want %q", tc.name, got, tc.code)
		}
	}
	// The table is the seam between the frame and the store: request body
	// in, reply frame out.
	conn := dialServer(t, srv)
	in := bufio.NewReader(conn)
	handle := func(req *remoteRequest) remoteResponse {
		t.Helper()
		return exchange(t, conn, in, req.Op, appendRequest(nil, req))
	}
	if resp := handle(&remoteRequest{Op: 0x7F}); resp.Code != network.CodeBadRequest {
		t.Errorf("unknown op code = %q, want %q", resp.Code, network.CodeBadRequest)
	}
	if resp := handle(&remoteRequest{Op: opGet, Key: "mem://sha256:" + strings64("0")}); resp.Code != network.CodeNotFound {
		t.Errorf("missing key code = %q, want %q", resp.Code, network.CodeNotFound)
	}
	if resp := handle(&remoteRequest{Op: opGet, Key: "no-scheme"}); resp.Code != network.CodeBadRequest {
		t.Errorf("bad ref code = %q, want %q", resp.Code, network.CodeBadRequest)
	}
}

func strings64(s string) string {
	out := make([]byte, 64)
	for i := range out {
		out[i] = s[0]
	}
	return string(out)
}

func TestRemoteTamperDetection(t *testing.T) {
	backing := NewMemStore()
	srv, err := NewServer("127.0.0.1:0", backing, network.LinkShape{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := NewRemoteStore(srv.Addr(), network.LinkShape{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ref, err := client.Put([]byte("iot frame"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt server-side; Get must fail with a checksum error.
	key, err := client.localKey(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := backing.Corrupt(key); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(ref); !errors.Is(err, ErrChecksumMismatch) {
		t.Errorf("tampered Get = %v, want ErrChecksumMismatch", err)
	}
}

func TestRemoteConcurrentClients(t *testing.T) {
	srv, _ := newRemotePair(t, network.LinkShape{})
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := NewRemoteStore(srv.Addr(), network.LinkShape{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			data := bytes.Repeat([]byte{byte(i)}, 1024)
			ref, err := c.Put(data)
			if err != nil {
				errs <- err
				return
			}
			got, err := c.Get(ref)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- errors.New("round trip mismatch")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// restartServer rebinds a closed server's address (retrying briefly: the OS
// may hold the port).
func restartServer(t *testing.T, addr string, backing Backing) *Server {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		srv, err := NewServer(addr, backing, network.LinkShape{})
		if err == nil {
			t.Cleanup(func() { srv.Close() })
			return srv
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
	}
}

func TestRemoteReconnects(t *testing.T) {
	srv, client := newRemotePair(t, network.LinkShape{})
	if _, err := client.Put([]byte("first")); err != nil {
		t.Fatal(err)
	}
	// Kill the client's connection from under it — the storage node
	// restarts; next op must reconnect, resending the same frame, payload
	// tail included.
	srv.Close()
	restartServer(t, srv.Addr(), NewMemStore())
	ref, err := client.Put([]byte("second"))
	if err != nil {
		t.Fatalf("Put after connection drop: %v", err)
	}
	if got, err := client.Get(ref); err != nil || string(got) != "second" {
		t.Fatalf("Get after a redialled Put = %q, %v", got, err)
	}
}

// TestRemoteStoreUseAfterClose: a closed store stays closed. Put and Get
// return network.ErrClientClosed and open no connection (they used to redial
// silently, succeed, and leave a live socket behind).
func TestRemoteStoreUseAfterClose(t *testing.T) {
	accepted := make(chan struct{}, 8)
	addr := rawServer(t, func(conn net.Conn) {
		accepted <- struct{}{}
		in := bufio.NewReader(conn)
		for {
			body, err := network.ReadFrame(in)
			if err != nil {
				return
			}
			req, _ := decodeRequest(body)
			reply := appendResponse(nil, req.Op, &remoteResponse{Key: "k", Data: []byte("v")})
			if writeFrame(conn, reply) != nil {
				return
			}
		}
	})
	client, err := NewRemoteStore(addr, network.LinkShape{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := client.Put([]byte("open"))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Put([]byte("after close")); !errors.Is(err, network.ErrClientClosed) {
		t.Errorf("Put after Close: err = %v, want ErrClientClosed", err)
	}
	if _, err := client.Get(ref); !errors.Is(err, network.ErrClientClosed) {
		t.Errorf("Get after Close: err = %v, want ErrClientClosed", err)
	}
	<-accepted // the connection NewRemoteStore opened
	select {
	case <-accepted:
		t.Error("a closed store opened a new connection")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestRemoteDeadAddressBacksOff: once the storage node is gone, one call pays
// for the failed redial and the calls behind it fail fast on the backoff
// gate instead of each dialling again under the store's lock.
func TestRemoteDeadAddressBacksOff(t *testing.T) {
	srv, client := newRemotePair(t, network.LinkShape{})
	srv.Close()
	if _, err := client.Put([]byte("nobody home")); err == nil || errors.Is(err, network.ErrBackoff) {
		t.Fatalf("first Put against a dead address: err = %v, want the dial failure", err)
	}
	// The gate opened by that failure is 50 ms; a scheduling hiccup may let
	// one attempt slip past it and dial again, which re-arms it.
	for attempt := 0; ; attempt++ {
		start := time.Now()
		_, err := client.Put([]byte("still nobody"))
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("Put against a dead address took %v", elapsed)
		}
		if errors.Is(err, network.ErrBackoff) {
			return
		}
		if err == nil || attempt == 20 {
			t.Fatalf("attempt %d: err = %v, want ErrBackoff", attempt, err)
		}
	}
}

// TestRemoteUndecodableReplyKeepsConnection: a reply frame that arrives whole
// but does not decode is an error for that call only — the frame boundary
// held, so the next call runs on the same connection.
func TestRemoteUndecodableReplyKeepsConnection(t *testing.T) {
	var conns atomic.Int32
	addr := rawServer(t, func(conn net.Conn) {
		conns.Add(1)
		in := bufio.NewReader(conn)
		for reply := []byte{0x00, 0xFF, 0xFF}; ; reply = appendResponse(nil, opPut, &remoteResponse{Key: "k"}) {
			if _, err := network.ReadFrame(in); err != nil {
				return
			}
			if writeFrame(conn, reply) != nil {
				return
			}
		}
	})
	client, err := NewRemoteStore(addr, network.LinkShape{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Put([]byte("x")); !errors.Is(err, codec.ErrMalformed) && !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("torn reply: err = %v, want a codec decode error", err)
	}
	if ref, err := client.Put([]byte("x")); err != nil || ref != "remote://"+addr+"/k" {
		t.Fatalf("Put after a torn reply: ref %q, err %v", ref, err)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("server saw %d connections, want 1: the undecodable reply dropped the connection", n)
	}
}

func TestShapedLinkAddsLatency(t *testing.T) {
	shape := network.LinkShape{Latency: 20 * time.Millisecond}
	_, client := newRemotePair(t, shape)
	start := time.Now()
	if _, err := client.Put([]byte("x")); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Client write shaped + server response shaped: >= 2x latency.
	if elapsed < 35*time.Millisecond {
		t.Errorf("shaped put took %v, want >= ~40ms", elapsed)
	}
}

func TestLinkShapeDelay(t *testing.T) {
	s := network.LinkShape{Latency: time.Millisecond, Mbps: 8}
	// 8 Mbps = 1 MB/s; 1000 bytes ≈ 1ms serialization + 1ms latency.
	d := s.Delay(1000)
	if d < 1900*time.Microsecond || d > 2100*time.Microsecond {
		t.Errorf("Delay(1000) = %v, want ~2ms", d)
	}
	if (network.LinkShape{}).Delay(1<<20) != 0 {
		t.Error("unshaped link should add no delay")
	}
	scaled := network.LinkShape{Latency: 10 * time.Millisecond, Scale: 0.1}
	if got := scaled.Delay(0); got != time.Millisecond {
		t.Errorf("scaled delay = %v, want 1ms", got)
	}
}
