package offchain

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/network"
)

// appendRequest and appendResponse encode a whole message as it crosses the
// wire: the head the sender appends in place, then the payload it sends as
// the frame's tail.
func appendRequest(buf []byte, req *remoteRequest) []byte {
	buf = appendRequestHead(buf, req)
	if req.Op == opPut {
		buf = append(buf, req.Data...)
	}
	return buf
}

// decodeRequest decodes a whole request body the way the server reads it:
// the op byte the table dispatches on, then that op's layout. Data aliases
// body.
func decodeRequest(body []byte) (remoteRequest, error) {
	d := codec.NewDec(body)
	req := remoteRequest{Op: d.Byte()}
	rest := d.Rest()
	var err error
	switch {
	case d.Err() != nil:
		err = d.Err()
	case req.Op == opPut:
		var size int
		if size, err = readPutSize(bytes.NewReader(rest)); err == nil && size > 0 {
			req.Data = rest[len(rest)-size:]
		}
	case req.Op == opGet:
		req.Key, err = decodeGet(rest)
	default:
		err = fmt.Errorf("%w: unknown op %#x", codec.ErrMalformed, req.Op)
	}
	return req, err
}

func appendResponse(buf []byte, op byte, resp *remoteResponse) []byte {
	buf = appendResponseHead(buf, op, resp)
	if resp.Code == network.CodeNone && op != opPut {
		buf = append(buf, resp.Data...)
	}
	return buf
}

// TestWireLayoutsRoundTrip: every request and reply layout survives encode →
// decode, with empty and nil fields normalised the way the codec does (a
// zero-length byte string decodes as nil).
func TestWireLayoutsRoundTrip(t *testing.T) {
	for _, req := range []remoteRequest{
		{Op: opPut},
		{Op: opPut, Data: []byte{}},
		{Op: opPut, Data: []byte{0}},
		{Op: opPut, Data: bytes.Repeat([]byte{0xAB, 0x00, '{', '"'}, 4096)},
		{Op: opGet},
		{Op: opGet, Key: "mem://sha256:" + strings64("a")},
	} {
		got, err := decodeRequest(appendRequest(nil, &req))
		if err != nil {
			t.Errorf("request %+v: %v", req, err)
			continue
		}
		if got.Op != req.Op || got.Key != req.Key || !bytes.Equal(got.Data, req.Data) {
			t.Errorf("request round trip: got %+v, want %+v", got, req)
		}
	}
	for _, tc := range []struct {
		op   byte
		resp remoteResponse
	}{
		{opPut, remoteResponse{Key: "mem://sha256:" + strings64("b")}},
		{opPut, remoteResponse{}},
		{opGet, remoteResponse{}},
		{opGet, remoteResponse{Data: []byte{}}},
		{opGet, remoteResponse{Data: bytes.Repeat([]byte{0xFF}, 1<<16)}},
		{opGet, remoteResponse{Code: network.CodeNotFound, Err: "no such object"}},
		{opPut, remoteResponse{Code: network.CodeInternal}},
		{0x7F, remoteResponse{Code: network.CodeBadRequest, Err: "unknown op"}},
	} {
		got, err := decodeResponse(tc.op, appendResponse(nil, tc.op, &tc.resp))
		if err != nil {
			t.Errorf("response %+v: %v", tc.resp, err)
			continue
		}
		if got.Code != tc.resp.Code || got.Err != tc.resp.Err || got.Key != tc.resp.Key || !bytes.Equal(got.Data, tc.resp.Data) {
			t.Errorf("response round trip: got %+v, want %+v", got, tc.resp)
		}
	}
}

// TestRemotePayloadSizes sends payloads around every size boundary over
// loopback: empty, one byte, the benchmark's 256 KiB, and 3 MiB — above the
// 1 MiB a reader allocates before any byte arrives, so the stored object and
// the reply buffer grow as the bytes come in — and refuses one the frame
// cannot carry.
func TestRemotePayloadSizes(t *testing.T) {
	_, client := newRemotePair(t, network.LinkShape{})
	for _, size := range []int{0, 1, 256 << 10, 3 << 20} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*31 + size)
		}
		// Twice: the second round runs on buffers the first one released.
		for round := 0; round < 2; round++ {
			ref, err := client.Put(data)
			if err != nil {
				t.Fatalf("Put(%d bytes): %v", size, err)
			}
			got, err := client.Get(ref)
			if err != nil {
				t.Fatalf("Get(%d bytes): %v", size, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%d-byte payload came back as %d different bytes", size, len(got))
			}
		}
	}
	// Sized but never touched, and refused before a frame is assembled.
	if _, err := client.Put(make([]byte, network.MaxFrame+1)); !errors.Is(err, network.ErrFrameTooLarge) {
		t.Errorf("Put(MaxFrame+1) = %v, want ErrFrameTooLarge", err)
	}
	// The refusal cost no connection: the next operation just works.
	if _, err := client.Put([]byte("after")); err != nil {
		t.Errorf("Put after an oversized one: %v", err)
	}
}

// TestRemoteSentinelsCrossTheWire: each store failure reaches the client as
// the sentinel it was, classified by the status byte and not by its text.
func TestRemoteSentinelsCrossTheWire(t *testing.T) {
	backing := NewMemStore()
	srv, err := NewServer("127.0.0.1:0", backing, network.LinkShape{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := NewRemoteStore(srv.Addr(), network.LinkShape{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	ref, err := client.Put([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	key, err := client.localKey(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := backing.Corrupt(key); err != nil {
		t.Fatal(err)
	}
	prefix := "remote://" + srv.Addr() + "/"
	for _, tc := range []struct {
		name, ref string
		want      error
	}{
		{"missing object", prefix + "mem://sha256:" + strings64("0"), ErrNotFound},
		{"corrupted object", ref, ErrChecksumMismatch},
		{"ref the backing store cannot parse", prefix + "file://not-mine", ErrBadRef},
		{"ref without a host", "remote://nohost", ErrBadRef},
	} {
		if _, err := client.Get(tc.ref); !errors.Is(err, tc.want) {
			t.Errorf("%s: Get = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// exchange sends one request body on a raw connection to an object server
// and decodes the one reply it gets as the reply to op.
func exchange(t *testing.T, conn net.Conn, in network.Reader, op byte, body []byte) remoteResponse {
	t.Helper()
	if err := writeFrame(conn, body); err != nil {
		t.Fatal(err)
	}
	reply, err := network.ReadFrame(in)
	if err != nil {
		t.Fatalf("body %q: connection dropped: %v", body, err)
	}
	resp, err := decodeResponse(op, reply)
	if err != nil {
		t.Fatalf("body %q: reply does not decode: %v", body, err)
	}
	return resp
}

// TestServerRejectsUnknownOp: a body that opens with a byte outside the
// protocol — including the '{' of a peer still speaking JSON — or that is
// torn gets a structured CodeBadRequest, and the connection stays usable.
func TestServerRejectsUnknownOp(t *testing.T) {
	srv, _ := newRemotePair(t, network.LinkShape{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	in := bufio.NewReader(conn)
	exchange := func(op byte, body []byte) remoteResponse {
		t.Helper()
		return exchange(t, conn, in, op, body)
	}
	for _, body := range [][]byte{
		[]byte(`{"op":"put","data":"aGVsbG8="}`),
		{0x7F},
		{0x00, 0x01},
		{},
		{opPut, 0x05, 'a'}, // announces five payload bytes, carries one
		append(appendRequest(nil, &remoteRequest{Op: opGet, Key: "k"}), 0x00), // trailing byte
	} {
		if resp := exchange(opGet, body); resp.Code != network.CodeBadRequest || resp.Err == "" {
			t.Errorf("body %q: code %q, message %q; want %q with a message", body, resp.Code, resp.Err, network.CodeBadRequest)
		}
	}
	put := exchange(opPut, appendRequest(nil, &remoteRequest{Op: opPut, Data: []byte("still here")}))
	if put.Code != network.CodeNone || put.Key == "" {
		t.Fatalf("put after rejected frames: %+v", put)
	}
	if get := exchange(opGet, appendRequest(nil, &remoteRequest{Op: opGet, Key: put.Key})); string(get.Data) != "still here" {
		t.Errorf("get after rejected frames: %+v", get)
	}
}

// TestRemotePutGetAllocBudget pins the raw wire where `go test ./...` sees
// it: what one Put + Get against a MemStore-backed server in this process
// allocates, client and server together, per payload size. What is inherent
// is 2 × the payload: the object the store keeps and the buffer the client
// reads the reply into and hands to the caller. Nothing else holds a copy:
// the client sends the payload from the caller's slice, the server streams
// it off the connection into the store and sends a get from the stored
// object itself. Above 1 MiB each of the two buffers grows fourfold as its
// bytes arrive (network.ReadAnnounced), so each costs up to ≈ 1.7 × there.
// A put into a DirStore-backed server holds no payload-sized buffer at all:
// it goes from the connection to the file through a fixed-size one.
func TestRemotePutGetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	for _, tc := range []struct {
		name        string
		size, pairs int
		budget      float64 // × payload per Put + Get
	}{
		{"256KiB", 256 << 10, 20, 2.25},
		{"8MiB", 8 << 20, 4, 4},
		{"32MiB", 32 << 20, 2, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, client := newRemotePair(t, network.LinkShape{})
			data := make([]byte, tc.size)
			pair := func() {
				ref, err := client.Put(data)
				if err != nil {
					t.Fatal(err)
				}
				got, err := client.Get(ref)
				if err != nil || len(got) != tc.size {
					t.Fatalf("Get: %d bytes, %v", len(got), err)
				}
			}
			pair() // warm the frame pool
			perPair := float64(allocated(func() {
				for i := 0; i < tc.pairs; i++ {
					pair()
				}
			})) / float64(tc.pairs)
			t.Logf("Put+Get of %d bytes allocates %.2f × payload", tc.size, perPair/float64(tc.size))
			if limit := tc.budget * float64(tc.size); perPair > limit {
				t.Errorf("Put+Get of %d bytes allocated %.0f bytes (%.2f × payload), budget %.2f ×",
					tc.size, perPair, perPair/float64(tc.size), tc.budget)
			}
		})
	}
	t.Run("DirStore-32MiB-put", func(t *testing.T) {
		const size, budget = 32 << 20, 2 << 20
		dir, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer("127.0.0.1:0", dir, network.LinkShape{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		client, err := NewRemoteStore(srv.Addr(), network.LinkShape{})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if _, err := client.Put([]byte("warm")); err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{0x5A}, size)
		var ref string
		n := allocated(func() { ref, err = client.Put(data) })
		t.Logf("Put of %d bytes into a DirStore allocates %d bytes", size, n)
		if err != nil || n > budget {
			t.Fatalf("32 MiB Put into a DirStore allocated %d bytes (budget %d), err %v", n, budget, err)
		}
		if got, err := client.Get(ref); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get of the streamed object: %d bytes, %v", len(got), err)
		}
	})
}

// allocated returns the bytes allocated in this process while f runs.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzOffchainBody feeds arbitrary bytes to every request and reply decoder
// of the off-chain protocol. The contract under hostile input: no panic; a
// failure is always codec.ErrTruncated or codec.ErrMalformed (an unknown op
// is ErrMalformed); and whatever decodes re-encodes to bytes that decode to
// the same value.
func FuzzOffchainBody(f *testing.F) {
	f.Add(appendRequest(nil, &remoteRequest{Op: opPut, Data: []byte("payload")}))
	f.Add(appendRequest(nil, &remoteRequest{Op: opPut}))
	f.Add(appendRequest(nil, &remoteRequest{Op: opGet, Key: "mem://sha256:" + strings64("0")}))
	f.Add(appendResponse(nil, opPut, &remoteResponse{Key: "mem://sha256:" + strings64("1")}))
	f.Add(appendResponse(nil, opGet, &remoteResponse{Data: bytes.Repeat([]byte{0, 0xFF}, 64)}))
	f.Add(appendResponse(nil, opGet, &remoteResponse{Code: network.CodeChecksumMismatch, Err: "tampered"}))
	f.Add([]byte(`{"op":"get","key":"k"}`))
	f.Add([]byte{opPut, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{0xEE, 0x03, 'a', 'b', 'c'})
	f.Add([]byte{})

	structured := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, codec.ErrMalformed) {
			t.Fatalf("%s: unstructured decode error: %v", what, err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, err := decodeRequest(body); err != nil {
			structured(t, "request", err)
		} else {
			again, err := decodeRequest(appendRequest(nil, &req))
			if err != nil || again.Op != req.Op || again.Key != req.Key || !bytes.Equal(again.Data, req.Data) {
				t.Fatalf("request %+v re-decoded as %+v, %v", req, again, err)
			}
		}
		for _, op := range []byte{opPut, opGet} {
			resp, err := decodeResponse(op, body)
			if err != nil {
				structured(t, "response", err)
				continue
			}
			again, err := decodeResponse(op, appendResponse(nil, op, &resp))
			if err != nil || again.Code != resp.Code || again.Err != resp.Err || again.Key != resp.Key || !bytes.Equal(again.Data, resp.Data) {
				t.Fatalf("response %+v re-decoded as %+v, %v", resp, again, err)
			}
		}
	})
}
