package offchain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
// The server is two entries of a network op table, which reads the op byte
// and keeps the connection in frame sync. Payload bytes travel raw and are
// never copied into a frame: the sender encodes everything before them and
// sends the payload as the frame's tail (network.Frame.Tail). The server
// streams a put's payload from the connection into its Backing and sends a
// get's verified object as the reply's tail, from where a MemStore keeps it;
// the client reads a get's reply into one buffer and sub-slices the payload
// out of it.

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

// readPutSize reads a put's payload length a byte at a time, leaving body at
// the payload, which must be exactly what is left of it.
func readPutSize(body interface {
	io.ByteReader
	Len() int
}) (int, error) {
	size, err := binary.ReadUvarint(body)
	switch {
	case err != nil:
		return 0, fmt.Errorf("%w: bad payload length", codec.ErrTruncated)
	case size != uint64(body.Len()):
		return 0, fmt.Errorf("%w: a %d-byte payload announced, %d bytes follow", codec.ErrMalformed, size, body.Len())
	}
	return int(size), nil
}

// decodeGet decodes a get's body: the key.
func decodeGet(body []byte) (string, error) {
	d := codec.NewDec(body)
	key := d.String()
	return key, d.Finish()
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
}

// NewServer starts an object server on addr ("127.0.0.1:0" for an
// ephemeral port). shape is applied to the server's responses, modelling
// the storage node's uplink.
func NewServer(addr string, backing Backing, shape network.LinkShape) (*Server, error) {
	s := &Server{backing: backing}
	var err error
	if s.Server, err = network.Listen(addr, s.table(shape)); err != nil {
		return nil, fmt.Errorf("offchain: %w", err)
	}
	return s, nil
}

// table is the object server's op table. No request is held in a buffer of
// its own: a put's payload goes from the connection into the backing store.
func (s *Server) table(shape network.LinkShape) *network.Table {
	return &network.Table{Shape: shape, Ops: []network.Op{
		{Code: opPut, Name: "put", Handle: s.put},
		{Code: opGet, Name: "get", Handle: s.get},
	}}
}

// put streams a put's payload from the connection into the backing store,
// which stores nothing unless all of it arrives. A store that fails part way
// is answered with a status; the table drains the payload it left unread.
func (s *Server) put(req *network.Request, out *network.Frame) error {
	size, err := readPutSize(req)
	if err != nil {
		return err
	}
	var resp remoteResponse
	if resp.Key, err = s.backing.Write(req, int64(size)); err != nil {
		resp = remoteResponse{Code: classify(err), Err: err.Error()}
	}
	out.B = appendResponseHead(out.B, opPut, &resp)
	return nil
}

// get answers a get with the object the backing store verified, sent as
// the reply's tail.
func (s *Server) get(req *network.Request, out *network.Frame) error {
	body, err := req.ReadAll()
	if err != nil {
		return err
	}
	key, err := decodeGet(body)
	if err != nil {
		return err
	}
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
	return nil
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
