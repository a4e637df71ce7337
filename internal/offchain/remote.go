package offchain

import (
	"errors"
	"fmt"
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
// Payload bytes travel raw: they are appended to the pooled frame buffer on
// one side and sub-sliced out of the frame on the other.

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

func appendRequest(buf []byte, req *remoteRequest) []byte {
	buf = append(buf, req.Op)
	if req.Op == opPut {
		return codec.AppendBytes(buf, req.Data)
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

// appendResponse encodes the reply to a request of the given op.
func appendResponse(buf []byte, op byte, resp *remoteResponse) []byte {
	buf = network.AppendStatus(buf, resp.Code, resp.Err)
	switch {
	case resp.Code != network.CodeNone:
		return buf
	case op == opPut:
		return codec.AppendString(buf, resp.Key)
	default:
		return codec.AppendBytes(buf, resp.Data)
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

// Server is a TCP object server backed by any Store. The listener and the
// connection lifecycle (Addr, Close) are network.Server's.
type Server struct {
	*network.Server
	backing Store
	shape   network.LinkShape
}

// NewServer starts an object server on addr ("127.0.0.1:0" for an
// ephemeral port). shape is applied to the server's responses, modelling
// the storage node's uplink.
func NewServer(addr string, backing Store, shape network.LinkShape) (*Server, error) {
	s := &Server{backing: backing, shape: shape}
	var err error
	if s.Server, err = network.Listen(addr, s.serve); err != nil {
		return nil, fmt.Errorf("offchain: %w", err)
	}
	return s, nil
}

func (s *Server) serve(conn net.Conn) {
	shaped := network.NewShapedConn(conn, s.shape)
	for {
		// The request is read into a pooled buffer and released as soon as it
		// is answered: Store.Put copies or persists its argument before it
		// returns, so nothing refers to a put's payload after handle.
		in := codec.GetBuffer()
		body, _, _, err := network.ReadFrameInto(conn, in)
		if err != nil {
			in.Release()
			return // EOF or broken connection
		}
		out := network.NewFrame("", "")
		out.B = s.handle(out.B, body)
		in.Release()
		err = out.Send(shaped)
		out.Release()
		if err != nil {
			return
		}
	}
}

// handle answers one request body, appending the reply body to out. A
// request that does not decode is answered with CodeBadRequest and the
// connection stays usable: the frame boundary is intact.
func (s *Server) handle(out, body []byte) []byte {
	req, err := decodeRequest(body)
	if err != nil {
		return network.AppendStatus(out, network.CodeBadRequest, err.Error())
	}
	var resp remoteResponse
	if req.Op == opPut {
		resp.Key, err = s.backing.Put(req.Data)
	} else {
		resp.Data, err = s.backing.Get(req.Key)
	}
	if err != nil {
		resp = remoteResponse{Code: classify(err), Err: err.Error()}
	}
	return appendResponse(out, req.Op, &resp)
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
		// Refused here, before a frame that size is assembled.
		return remoteResponse{}, fmt.Errorf("offchain: remote round trip: %w: %d bytes", network.ErrFrameTooLarge, n)
	}
	f := network.NewFrame("", "")
	defer f.Release()
	f.Grow(n)
	f.B = appendRequest(f.B, req)
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
