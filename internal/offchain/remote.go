package offchain

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"

	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/network"
)

// This file implements the remote off-chain store: a TCP object server and
// its client. It stands in for the paper's SSHFS mount served from a
// separate node — the client pays a per-operation handshake plus a
// bandwidth-bound transfer, which is exactly the cost structure that bends
// the throughput and response-time curves of Figs 1–2 at large payloads.
//
// The wire is one frame each way, an op byte and an internal/codec body:
//
//	put  [0x01][bytes payload]  ->  [status][string key]
//	get  [0x02][string key]     ->  [status][bytes payload]
//
// and a failed reply is [status][string message] (network.AppendStatus).
// Payload bytes travel raw and are never copied into a frame: the sender
// encodes everything before them and sends the payload as the frame's tail
// (network.Frame.Tail). The server streams a put's payload from the
// connection into its Backing and sends a get's verified object as the
// reply's tail, from where a MemStore keeps it; the client reads a get's
// reply into one buffer and sub-slices the payload out of it.

// remote protocol operations.
const (
	opPut byte = 0x01
	opGet byte = 0x02
)

// remoteRequest is one client -> server message: Data for a put, Key for a
// get.
type remoteRequest struct {
	Op   byte
	Key  string
	Data []byte
}

// appendRequestHead encodes a request up to its payload: a put's Data is
// the frame's tail.
func appendRequestHead(buf []byte, req *remoteRequest) []byte {
	buf = append(buf, req.Op)
	if req.Op == opPut {
		return codec.AppendUvarint(buf, uint64(len(req.Data)))
	}
	return codec.AppendString(buf, req.Key)
}

// decodeRequest decodes a request frame's body. Data aliases body.
func decodeRequest(body []byte) (remoteRequest, error) {
	d := codec.NewDec(body)
	req := remoteRequest{Op: d.Byte()}
	switch req.Op {
	case opPut:
		req.Data = d.BytesShared()
	case opGet:
		req.Key = d.String()
	default:
		// A peer still speaking the JSON protocol lands here with '{'.
		d.Fail(fmt.Errorf("%w: unknown op %#x", codec.ErrMalformed, req.Op))
	}
	return req, d.Finish()
}

// remoteResponse is one server -> client message. Code classifies failures
// structurally (shared vocabulary with the peer transport, see
// network.ErrCode) and Err carries the human-readable message only; a
// success answers a put with Key and a get with Data.
type remoteResponse struct {
	Code network.ErrCode
	Err  string
	Key  string
	Data []byte
}

// appendResponseHead encodes the reply to a request of the given op up to
// its payload: a get's Data is the frame's tail.
func appendResponseHead(buf []byte, op byte, resp *remoteResponse) []byte {
	buf = network.AppendStatus(buf, resp.Code, resp.Err)
	switch {
	case resp.Code != network.CodeNone:
		return buf
	case op == opPut:
		return codec.AppendString(buf, resp.Key)
	default:
		return codec.AppendUvarint(buf, uint64(len(resp.Data)))
	}
}

// decodeResponse decodes the reply to a request of the given op. Data
// aliases body.
func decodeResponse(op byte, body []byte) (remoteResponse, error) {
	d := codec.NewDec(body)
	var resp remoteResponse
	resp.Code, resp.Err = network.ReadStatus(d)
	switch {
	case resp.Code != network.CodeNone:
	case op == opPut:
		resp.Key = d.String()
	default:
		resp.Data = d.BytesShared()
	}
	return resp, d.Finish()
}

// classify maps a backing-store error onto the wire error code.
func classify(err error) network.ErrCode {
	switch {
	case errors.Is(err, ErrNotFound):
		return network.CodeNotFound
	case errors.Is(err, ErrChecksumMismatch):
		return network.CodeChecksumMismatch
	case errors.Is(err, ErrBadRef):
		return network.CodeBadRequest
	default:
		return network.CodeInternal
	}
}

// Server is a TCP object server over a Backing. The listener and the
// connection lifecycle (Addr, Close) are network.Server's.
type Server struct {
	*network.Server
	backing Backing
	shape   network.LinkShape
}

// NewServer starts an object server on addr ("127.0.0.1:0" for an
// ephemeral port). shape is applied to the server's responses, modelling
// the storage node's uplink.
func NewServer(addr string, backing Backing, shape network.LinkShape) (*Server, error) {
	s := &Server{backing: backing, shape: shape}
	var err error
	if s.Server, err = network.Listen(addr, s.serve); err != nil {
		return nil, fmt.Errorf("offchain: %w", err)
	}
	return s, nil
}

// serve answers one connection's requests in turn. Requests are read
// through one small buffer per connection: no request is held in a buffer
// of its own, and a put's payload goes from the connection into the
// backing store.
func (s *Server) serve(conn net.Conn) {
	in := bufio.NewReader(conn)
	shaped := network.NewShapedConn(conn, s.shape)
	for {
		n, err := network.ReadHeader(in)
		if err != nil {
			return // EOF or broken connection
		}
		out := network.NewFrame("", "")
		if err = s.handle(&out, in, n); err == nil {
			err = out.Send(shaped)
		}
		out.Release()
		if err != nil {
			return
		}
	}
}

// handle reads one request body of n bytes from in and sets out to the
// reply. A put streams its payload into the backing store; any other body
// is read whole and decoded. A body that does not decode is answered with
// CodeBadRequest and the connection stays usable: the frame boundary is
// intact. An error means the connection ended mid-frame.
func (s *Server) handle(out *network.Frame, in *bufio.Reader, n int) error {
	if size, ok := putSize(in, n); ok {
		return s.put(out, in, size)
	}
	body, err := network.ReadAnnounced(in, n)
	if err != nil {
		return err
	}
	req, err := decodeRequest(body)
	if err != nil {
		out.B = network.AppendStatus(out.B, network.CodeBadRequest, err.Error())
		return nil
	}
	// putSize accepts exactly the puts decodeRequest does: this is a get.
	s.get(out, req.Key)
	return nil
}

// putSize reports whether the n-byte request body waiting in in is a put —
// an op byte and a payload length that runs exactly to the end of the
// frame, as decodeRequest requires — and if so consumes both, leaving in
// at the payload.
func putSize(in *bufio.Reader, n int) (int, bool) {
	head, _ := in.Peek(min(n, 1+binary.MaxVarintLen64))
	d := codec.NewDec(head)
	op, size := d.Byte(), d.Uvarint()
	used := len(head) - d.Len()
	if d.Err() != nil || op != opPut || size != uint64(n-used) {
		return 0, false
	}
	in.Discard(used)
	return int(size), true
}

// put streams a put's size payload bytes from in into the backing store. A
// store that fails part way leaves the rest of the payload unread; it is
// drained, so the failure is answered on a connection still in frame sync.
// A connection that ends before the payload does is finished.
func (s *Server) put(out *network.Frame, in io.Reader, size int) error {
	payload := &io.LimitedReader{R: in, N: int64(size)}
	var resp remoteResponse
	var err error
	if resp.Key, err = s.backing.Write(payload, int64(size)); err != nil {
		resp = remoteResponse{Code: classify(err), Err: err.Error()}
	}
	if _, err := io.Copy(io.Discard, payload); err != nil {
		return err
	}
	if payload.N > 0 {
		return io.ErrUnexpectedEOF
	}
	out.B = appendResponseHead(out.B, opPut, &resp)
	return nil
}

// get answers a get with the object the backing store verified, sent as
// the reply's tail.
func (s *Server) get(out *network.Frame, key string) {
	var resp remoteResponse
	obj, size, err := s.backing.Open(key)
	if err == nil {
		resp.Data, err = objectBytes(obj, size)
	}
	if err != nil {
		resp = remoteResponse{Code: classify(err), Err: err.Error()}
	}
	out.B = appendResponseHead(out.B, opGet, &resp)
	out.Tail = resp.Data
}

// objectBytes returns the bytes of an opened object and is done with it.
// An object MemStore opened is sent from where the store keeps it; any
// other is read whole first.
func objectBytes(obj io.ReadCloser, size int64) ([]byte, error) {
	if m, ok := obj.(*memObject); ok {
		return m.data, nil
	}
	return readAll(obj, size, nil)
}

// RemoteStore is the client side: it dials the object server and shapes its
// own uplink writes, so both transfer directions pay the modeled link cost.
// Dial timeout, redial and backoff are network.Client's.
type RemoteStore struct {
	c *network.Client
}

var _ Store = (*RemoteStore)(nil)

// NewRemoteStore connects to an object server.
func NewRemoteStore(addr string, shape network.LinkShape) (*RemoteStore, error) {
	c, err := network.Dial(addr, network.ClientConfig{Shape: shape})
	if err != nil {
		return nil, fmt.Errorf("offchain: %w", err)
	}
	return &RemoteStore{c: c}, nil
}

// roundTrip sends one request and reads one response. The response's Data
// aliases the reply frame, which the caller owns.
func (r *RemoteStore) roundTrip(req *remoteRequest) (remoteResponse, error) {
	n := 1 + codec.SizeBytes(len(req.Data)+len(req.Key))
	if n > network.MaxFrame {
		// Refused here, before any of it is sent.
		return remoteResponse{}, fmt.Errorf("offchain: remote round trip: %w: %d bytes", network.ErrFrameTooLarge, n)
	}
	f := network.NewFrame("", "")
	defer f.Release()
	f.B = appendRequestHead(f.B, req)
	f.Tail = req.Data
	body, err := r.c.Do(f)
	if err != nil {
		return remoteResponse{}, fmt.Errorf("offchain: remote round trip: %w", err)
	}
	resp, err := decodeResponse(req.Op, body)
	if err != nil {
		return remoteResponse{}, fmt.Errorf("offchain: remote reply: %w", err)
	}
	return resp, nil
}

// Put uploads data and returns a remote reference.
func (r *RemoteStore) Put(data []byte) (string, error) {
	resp, err := r.roundTrip(&remoteRequest{Op: opPut, Data: data})
	if err != nil {
		return "", err
	}
	if resp.Code != network.CodeNone {
		return "", fmt.Errorf("offchain: remote put: %s", resp.Err)
	}
	return "remote://" + r.c.Addr() + "/" + resp.Key, nil
}

// Get downloads the object for ref. The returned slice is the payload part
// of the one frame buffer the reply was read into; the caller owns it. The
// client does not hash it: the serving store verified the object against its
// content address when it read it (a mismatch arrives as
// ErrChecksumMismatch), and core.GetData verifies what arrives against the
// checksum recorded on-chain.
func (r *RemoteStore) Get(ref string) ([]byte, error) {
	key, err := r.localKey(ref)
	if err != nil {
		return nil, err
	}
	resp, err := r.roundTrip(&remoteRequest{Op: opGet, Key: key})
	if err != nil {
		return nil, err
	}
	switch resp.Code {
	case network.CodeNone:
		return resp.Data, nil
	case network.CodeNotFound:
		return nil, fmt.Errorf("%w: %q", ErrNotFound, ref)
	case network.CodeChecksumMismatch:
		return nil, ErrChecksumMismatch
	case network.CodeBadRequest:
		return nil, fmt.Errorf("%w: %s", ErrBadRef, resp.Err)
	}
	return nil, fmt.Errorf("offchain: remote get: %s", resp.Err)
}

// localKey strips the remote:// prefix and host, returning the backing
// store's reference.
func (r *RemoteStore) localKey(ref string) (string, error) {
	rest, ok := strings.CutPrefix(ref, "remote://")
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrBadRef, ref)
	}
	i := strings.Index(rest, "/")
	if i < 0 {
		return "", fmt.Errorf("%w: %q", ErrBadRef, ref)
	}
	return rest[i+1:], nil
}

// Close closes the client connection; later calls return
// network.ErrClientClosed.
func (r *RemoteStore) Close() error { return r.c.Close() }
