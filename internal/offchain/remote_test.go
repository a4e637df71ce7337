package offchain

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/network"
)

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
	// handle is the seam between the frame and the store: request body in,
	// reply body out.
	handle := func(req *remoteRequest) remoteResponse {
		t.Helper()
		resp, err := decodeResponse(req.Op, srv.handle(nil, appendRequest(nil, req)))
		if err != nil {
			t.Fatalf("op %#x: reply does not decode: %v", req.Op, err)
		}
		return resp
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

func TestRemoteReconnects(t *testing.T) {
	srv, client := newRemotePair(t, network.LinkShape{})
	if _, err := client.Put([]byte("first")); err != nil {
		t.Fatal(err)
	}
	// Kill the client's connection from under it; next op must reconnect.
	client.mu.Lock()
	client.conn.Close()
	client.mu.Unlock()
	if _, err := client.Put([]byte("second")); err != nil {
		t.Fatalf("Put after connection drop: %v", err)
	}
	_ = srv
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
