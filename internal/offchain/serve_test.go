package offchain

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/leaktest"
	"github.com/hyperprov/hyperprov/internal/network"
)

// backingCase is one kind of store behind an object server, with a count of
// the objects it holds.
type backingCase struct {
	name    string
	backing Backing
	// objects counts what the store holds. For a DirStore that is every
	// file left in its root once a reopen has swept the temp files a cut
	// short put may leave.
	objects func(t *testing.T) int
}

func backingCases(t *testing.T) []backingCase {
	mem := NewMemStore()
	root := t.TempDir()
	dir, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	return []backingCase{
		{"MemStore", mem, func(*testing.T) int { return mem.Len() }},
		{"DirStore", dir, func(t *testing.T) int {
			if _, err := NewDirStore(root); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(root)
			if err != nil {
				t.Fatal(err)
			}
			return len(entries)
		}},
	}
}

// putPrefix is the start of a put frame announcing a size-byte payload: the
// length word, the op byte and the payload length.
func putPrefix(size int) []byte {
	body := codec.AppendUvarint([]byte{opPut}, uint64(size))
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body)+size)), body...)
}

func dialServer(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// TestServerTornPutLeavesNothing: a client that announces a payload and
// hangs up part way through it leaves no object under any key, no file but
// a temp file the next open sweeps, and no handler running.
func TestServerTornPutLeavesNothing(t *testing.T) {
	for _, bc := range backingCases(t) {
		t.Run(bc.name, func(t *testing.T) {
			srv, err := NewServer("127.0.0.1:0", bc.backing, network.LinkShape{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			const announced, sent = 1 << 20, 100 << 10
			conn := dialServer(t, srv)
			if _, err := conn.Write(append(putPrefix(announced), make([]byte, sent)...)); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			leaktest.Settle(t, 0, leaktest.ObjectServe)
			if n := bc.objects(t); n != 0 {
				t.Errorf("a put cut off after %d of %d bytes left %d objects", sent, announced, n)
			}
		})
	}
}

// tappedBacking closes arrived once a Write has read the first want bytes
// of its payload.
type tappedBacking struct {
	Backing
	want    int64
	arrived chan struct{}
}

func (b *tappedBacking) Write(r io.Reader, size int64) (string, error) {
	return b.Backing.Write(&tapReader{r: r, left: b.want, arrived: b.arrived}, size)
}

type tapReader struct {
	r       io.Reader
	left    int64
	arrived chan struct{}
}

func (t *tapReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if t.left > 0 {
		if t.left -= int64(n); t.left <= 0 {
			close(t.arrived)
		}
	}
	return n, err
}

// TestServerAnnouncedPutPinsWhatArrives: a put that announces a MaxFrame
// payload and sends ten bytes costs the server what arrived plus one eager
// piece, not 64 MiB — under 4 MiB, the bound network's frame reader holds
// for an announced frame.
func TestServerAnnouncedPutPinsWhatArrives(t *testing.T) {
	for _, bc := range backingCases(t) {
		t.Run(bc.name, func(t *testing.T) {
			tap := &tappedBacking{Backing: bc.backing, want: 10, arrived: make(chan struct{})}
			srv, err := NewServer("127.0.0.1:0", tap, network.LinkShape{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn := dialServer(t, srv)
			size := network.MaxFrame - 1 - codec.SizeUvarint(network.MaxFrame)
			n := allocated(func() {
				if _, err := conn.Write(append(putPrefix(size), make([]byte, 10)...)); err != nil {
					t.Fatal(err)
				}
				select {
				case <-tap.arrived:
				case <-time.After(10 * time.Second):
					t.Fatal("the server never read the ten payload bytes")
				}
			})
			if n >= 4<<20 {
				t.Errorf("announcing a %d-byte put and sending 10 bytes cost the server %d bytes, want < 4 MiB", size, n)
			}
			conn.Close()
			leaktest.Settle(t, 0, leaktest.ObjectServe)
			if n := bc.objects(t); n != 0 {
				t.Errorf("the unfinished put left %d objects", n)
			}
		})
	}
}

var errDiskFull = errors.New("disk full")

// failingBacking takes half of a payload and then fails, the way a store
// whose disk fills up mid-object does, while fail is set.
type failingBacking struct {
	Backing
	fail atomic.Bool
}

func (b *failingBacking) Write(r io.Reader, size int64) (string, error) {
	if b.fail.Load() {
		r = io.MultiReader(io.LimitReader(r, size/2), iotest.ErrReader(errDiskFull))
	}
	return b.Backing.Write(r, size)
}

// TestServerStoreFailureKeepsFrameSync pins what a store that fails part
// way through a put costs the connection: nothing. The server drains the
// payload the store left unread and answers with a status; the next request
// on the same connection is served.
func TestServerStoreFailureKeepsFrameSync(t *testing.T) {
	for _, bc := range backingCases(t) {
		t.Run(bc.name, func(t *testing.T) {
			failing := &failingBacking{Backing: bc.backing}
			failing.fail.Store(true)
			srv, err := NewServer("127.0.0.1:0", failing, network.LinkShape{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn := dialServer(t, srv)
			in := bufio.NewReader(conn)
			put := func(data []byte) remoteResponse {
				t.Helper()
				f := network.NewFrame("", "")
				defer f.Release()
				f.B = appendRequestHead(f.B, &remoteRequest{Op: opPut, Data: data})
				f.Tail = data
				if err := f.Send(conn); err != nil {
					t.Fatal(err)
				}
				reply, err := network.ReadFrame(in)
				if err != nil {
					t.Fatalf("connection dropped: %v", err)
				}
				resp, err := decodeResponse(opPut, reply)
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}
			if resp := put(bytes.Repeat([]byte{1}, 256<<10)); resp.Code != network.CodeInternal {
				t.Fatalf("put into a failing store: %+v, want %q", resp, network.CodeInternal)
			}
			failing.fail.Store(false)
			data := []byte("after the failure")
			if resp := put(data); resp.Code != network.CodeNone || resp.Key == "" {
				t.Fatalf("put on the same connection after a failed one: %+v", resp)
			}
			if n := bc.objects(t); n != 1 {
				t.Errorf("store holds %d objects, want the one good put", n)
			}
		})
	}
}

// serveFrame is one request body framed the way a client sends it.
func serveFrame(body []byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, body); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzOffchainServe feeds arbitrary bytes to the object server's op table
// as one connection's request stream, over net.Pipe, with a MemStore
// behind it. The contract under hostile input: no panic, the handler
// returns once the client hangs up, and every object stored holds bytes
// that hash to its key.
func FuzzOffchainServe(f *testing.F) {
	payload := []byte("payload")
	put := serveFrame(appendRequest(nil, &remoteRequest{Op: opPut, Data: payload}))
	get := serveFrame(appendRequest(nil, &remoteRequest{Op: opGet, Key: "mem://" + Checksum(payload)}))
	f.Add(put)
	f.Add(get)
	f.Add(append(append([]byte(nil), put...), get...))
	f.Add(put[:len(put)-3])
	f.Add(serveFrame([]byte{opPut, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}))
	f.Add(serveFrame([]byte{0x7F, 'x'}))

	f.Fuzz(func(t *testing.T, stream []byte) {
		mem := NewMemStore()
		table := (&Server{backing: mem}).table(network.LinkShape{})
		client, server := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			table.Serve(server)
			server.Close()
		}()
		go func() {
			defer wg.Done()
			io.Copy(io.Discard, client) // the replies; ends when client closes
		}()
		client.Write(stream) // fails once the server has hung up
		client.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("serve did not return after the client hung up")
		}
		mem.mu.RLock()
		defer mem.mu.RUnlock()
		for key, obj := range mem.data {
			if Checksum(obj) != key {
				t.Fatalf("object under %s hashes to %s", key, Checksum(obj))
			}
		}
	})
}
