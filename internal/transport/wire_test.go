package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// TestRequestLayoutsRoundTrip: every op's request survives encode → decode
// — its layout read the way the server's handler reads it, past the op byte
// the table dispatches on — and the bytes a client sends are the protocol's.
// Zero-length byte strings decode as nil (the codec's normalisation), so a
// case whose input holds empties states the value it expects back.
func TestRequestLayoutsRoundTrip(t *testing.T) {
	c := &Client{}
	for _, tc := range []struct {
		op     network.Op
		layout func([]byte) []byte
		want   []byte
	}{
		{opHello, nil, []byte{0x01}},
		{opHeight, nil, []byte{0x02}},
		{opBlocksFrom, func(b []byte) []byte { return codec.AppendUvarint(b, 300) }, []byte{0x03, 0xAC, 0x02}},
		{opSync, nil, []byte{0x05}},
	} {
		f := c.newFrame(tc.op, "", tc.layout)
		if body := f.B[4:]; !bytes.Equal(body, tc.want) {
			t.Errorf("%s request body = %x, want %x", tc.op.Name, body, tc.want)
		}
		f.Release()
	}

	for _, from := range []uint64{0, 1, 1<<63 + 5} {
		d := codec.NewDec(codec.AppendUvarint(nil, from))
		if got := d.Uvarint(); d.Finish() != nil || got != from {
			t.Errorf("blocksFrom %d: got %d, %v", from, got, d.Err())
		}
	}

	for _, b := range chainOf(t, 2) {
		got, err := blockstore.UnmarshalBlock(blockstore.AppendBlock(nil, b))
		if err != nil || !bytes.Equal(blockstore.MarshalBlock(got), blockstore.MarshalBlock(b)) {
			t.Errorf("deliver block %d: %+v, %v", b.Header.Number, got, err)
		}
	}

	stamp := time.Date(2019, 12, 9, 10, 30, 0, 123456789, time.UTC)
	full := &endorser.Proposal{
		TxID: "tx-1", ChannelID: "ch", Chaincode: "provenance", Function: "set",
		Args:    [][]byte{[]byte(`{"key":"k"}`), {0x00, 0xFF}},
		Creator: []byte("creator-identity"), Timestamp: stamp, Signature: []byte{1, 2, 3},
	}
	for _, tc := range []struct {
		name     string
		in, want *endorser.Proposal // want nil: same as in
	}{
		{name: "endorse", in: full},
		{name: "endorse zero proposal", in: &endorser.Proposal{}},
		{
			name: "endorse args with empty elements",
			in:   &endorser.Proposal{TxID: "t", Args: [][]byte{{}, []byte("a"), nil}, Creator: []byte{}},
			want: &endorser.Proposal{TxID: "t", Args: [][]byte{nil, []byte("a"), nil}},
		},
		{name: "endorse empty args list", in: &endorser.Proposal{Args: [][]byte{}}, want: &endorser.Proposal{}},
	} {
		want := tc.want
		if want == nil {
			want = tc.in
		}
		d := codec.NewDec(appendProposal(nil, tc.in))
		got := decodeProposal(d)
		if err := d.Finish(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, want)
		}
	}
}

// TestReplyLayoutsRoundTrip: every op's reply layout survives encode →
// decode, and Finish accounts for every byte.
func TestReplyLayoutsRoundTrip(t *testing.T) {
	roundTrip := func(name string, enc func([]byte) []byte, dec func(*codec.Dec) any, want any) {
		t.Helper()
		d := codec.NewDec(enc(nil))
		got := dec(d)
		if err := d.Finish(); err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
	hello := func(name string, in, want HelloInfo) {
		roundTrip(name, func(b []byte) []byte { return appendHello(b, &in) },
			func(d *codec.Dec) any { return decodeHello(d) }, want)
	}
	multi := HelloInfo{
		Name: "peer0", Channels: []string{"ch-a", "ch-b", "ch-c"},
		Orgs: []string{"Org1", "Org2"}, CACertsPEM: [][]byte{[]byte("-----BEGIN-1"), []byte("-----BEGIN-2")},
		Height: 1 << 40,
	}
	hello("hello multi-channel", multi, multi)
	hello("hello zero", HelloInfo{}, HelloInfo{})
	hello("hello empty lists and elements",
		HelloInfo{Channels: []string{}, Orgs: []string{""}, CACertsPEM: [][]byte{{}}},
		HelloInfo{Orgs: []string{""}, CACertsPEM: [][]byte{nil}})

	for _, h := range []uint64{0, 1, 1<<64 - 1} {
		roundTrip(fmt.Sprint("height ", h), func(b []byte) []byte { return appendHeight(b, h) },
			func(d *codec.Dec) any { return decodeHeight(d) }, h)
	}
	type endorsement struct {
		Resp *endorser.Response
		Span trace.Span
	}
	start := time.Date(2019, 12, 9, 10, 30, 0, 987654321, time.UTC)
	for name, e := range map[string]endorsement{
		"endorsement zero": {Resp: &endorser.Response{}},
		"endorsement full": {
			Resp: &endorser.Response{TxID: "tx", Status: shim.OK, Message: "ok", Payload: []byte("p"), RWSet: []byte("rw"),
				Events: []byte("ev"), Endorser: []byte("peer-id"), Signature: []byte{9, 8, 7}},
			Span: trace.Span{Stage: trace.StageEndorse, Peer: "peer0", Start: start, Duration: 1234567 * time.Nanosecond},
		},
		"endorsement negative status": {
			Resp: &endorser.Response{TxID: "tx", Status: -1 << 31, Message: "boom"},
			Span: trace.Span{Stage: trace.StageEndorse, Duration: -time.Second},
		},
	} {
		roundTrip(name, func(b []byte) []byte { return appendEndorsement(b, e.Resp, &e.Span) },
			func(d *codec.Dec) any { r, s := decodeEndorsement(d); return endorsement{r, s} }, e)
	}
	// A status that does not fit a chaincode status is malformed, not wrapped.
	d := codec.NewDec(codec.AppendVarint(nil, 1<<31))
	if decodeInt32(d); !errors.Is(d.Err(), codec.ErrMalformed) {
		t.Errorf("status 2^31 err = %v, want ErrMalformed", d.Err())
	}
}

// TestStreamFrameRoundTrip: a block frame carries its block, the terminator
// carries none, and a failure status surfaces as the *RemoteError it names.
func TestStreamFrameRoundTrip(t *testing.T) {
	want := chainOf(t, 3)[2]
	got, err := decodeStreamFrame(appendStreamFrame(nil, want))
	if err != nil || got == nil || !bytes.Equal(blockstore.MarshalBlock(got), blockstore.MarshalBlock(want)) {
		t.Fatalf("block frame: %+v, %v", got, err)
	}
	if got, err := decodeStreamFrame(appendStreamFrame(nil, nil)); got != nil || err != nil {
		t.Errorf("terminator: %+v, %v", got, err)
	}
	_, err = decodeStreamFrame(network.AppendStatus(nil, network.CodeUnknownChannel, "not here"))
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != network.CodeUnknownChannel || remote.Msg != "not here" || !errors.Is(err, ErrUnknownChannel) {
		t.Errorf("failure frame err = %v", err)
	}
	if _, err := decodeStreamFrame(append(appendStreamFrame(nil, nil), 0)); !errors.Is(err, codec.ErrMalformed) {
		t.Errorf("terminator with a trailing byte err = %v, want ErrMalformed", err)
	}
}

// TestServerRejectsUnknownOp: a frame whose body opens with a byte outside
// the protocol — '{' from a peer still speaking JSON and the retired query
// and fingerprint codes included — or whose layout is torn is answered with
// a structured CodeBadRequest, and the connection keeps serving.
func TestServerRejectsUnknownOp(t *testing.T) {
	f := newFixture(t)
	p := f.newPeer("peer0")
	f.commitTx(p, "item")
	conn, err := net.Dial("tcp", f.serve(p).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	in := bufio.NewReader(conn)
	exchange := func(body []byte) (*codec.Dec, error) {
		t.Helper()
		if err := writeFrame(conn, "ch", body); err != nil {
			t.Fatal(err)
		}
		reply, err := network.ReadFrame(in)
		if err != nil {
			t.Fatalf("body %q: connection dropped: %v", body, err)
		}
		d := codec.NewDec(reply)
		return d, replyStatus(d)
	}
	for _, body := range [][]byte{
		[]byte(`{"op":"hello"}`),
		{0x00},
		{0x7F, 1, 2, 3},
		{},
		{opHeight.Code, 0x00},       // trailing byte on a body-less op
		{opBlocksFrom.Code},         // missing from
		{opDeliver.Code, 'H', 'P'},  // torn block
		{opEndorse.Code, 0x02, 't'}, // torn proposal
		// The retired query (07) and fingerprint (08), as a client that
		// still has them sends them: a query of chaincode "" as creator "me".
		{0x07, 0x00, 0x00, 0x00, 0x02, 'm', 'e'},
		{0x08},
	} {
		_, err := exchange(body)
		var remote *RemoteError
		if !errors.As(err, &remote) || remote.Code != network.CodeBadRequest || remote.Msg == "" {
			t.Errorf("body %q: err = %v, want a RemoteError with %q", body, err, network.CodeBadRequest)
		}
	}
	d, err := exchange([]byte{opHeight.Code})
	if err != nil {
		t.Fatalf("height after rejected frames: %v", err)
	}
	if h := decodeHeight(d); d.Finish() != nil || h != 1 {
		t.Errorf("height after rejected frames = %d, %v", h, d.Err())
	}
}

// tenTxBlock commits the instantiation on source and then one block of ten
// transactions, returning both blocks.
func tenTxBlock(f *fixture, source *peer.Peer) (genesis, ten *blockstore.Block) {
	f.t.Helper()
	genesis = f.commitBlock(source, f.envelope(source, "init"))
	envs := make([]blockstore.Envelope, 10)
	for i := range envs {
		envs[i] = f.envelope(source, fmt.Sprintf("item-%d", i))
	}
	return genesis, f.commitBlock(source, envs...)
}

// TestDeliverEncodeZeroAlloc pins the send side of a block push: once the
// buffer pool is warm, encoding a deliver request for a 10-tx block into its
// frame allocates nothing — the block goes from its cached envelope bytes
// straight into the pooled frame buffer. (Through MarshalBlock, base64 and
// json.Marshal it cost ≈ 2.3 × the encoded block per push.)
func TestDeliverEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	f := newFixture(t)
	_, b := tenTxBlock(f, f.newPeer("peer0"))
	c := &Client{cfg: ClientConfig{Channel: "ch"}}
	encode := func() {
		c.newFrame(opDeliver, blockTraceID(b), func(buf []byte) []byte { return blockstore.AppendBlock(buf, b) }).Release()
	}
	encode() // warm the pool to this frame's size
	allocs := testing.AllocsPerRun(100, encode)
	if allocs != 0 {
		t.Errorf("encoding a deliver frame allocates %.1f objects, want 0", allocs)
	}
}

// TestDeliverWireBytes pins what a pushed block costs on the wire: request
// and reply together are at most 1.02 × the block's canonical encoding,
// read from the transport's own byte counters. (base64 inside JSON was
// 1.36 ×.)
func TestDeliverWireBytes(t *testing.T) {
	f := newFixture(t)
	genesis, b := tenTxBlock(f, f.newPeer("peer0"))
	joiner := f.newPeer("peer1")
	reg := metrics.NewRegistry()
	c, err := Dial(f.serve(joiner).Addr(), ClientConfig{Channel: "ch", ClientConfig: network.ClientConfig{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Deliver(genesis); err != nil {
		t.Fatal(err)
	}
	wire := func() int64 {
		snap := reg.Snapshot()
		return snap[metrics.TransportBytesSent] + snap[metrics.TransportBytesReceived]
	}
	before := wire()
	if err := c.Deliver(b); err != nil {
		t.Fatal(err)
	}
	got, encoded := wire()-before, len(blockstore.MarshalBlock(b))
	if limit := int64(float64(encoded) * 1.02); got > limit {
		t.Errorf("delivering a %d-byte block moved %d bytes (%.3f ×), budget 1.02 ×", encoded, got, float64(got)/float64(encoded))
	}
	if h, err := c.SyncRemote(); err != nil || h != 2 {
		t.Fatalf("joiner height = %d, %v; want 2", h, err)
	}
	if joiner.StateFingerprint() == "" || joiner.Ledger().VerifyChain() != nil {
		t.Error("joiner did not commit the delivered blocks")
	}
}

// FuzzTransportBody feeds arbitrary bytes to every request and reply decoder
// of the peer transport: each op's request layout as its handler reads it,
// and each reply layout. The contract under hostile input: no panic; every
// failure wraps codec.ErrTruncated, codec.ErrMalformed or (a block's
// trailer) codec.ErrChecksum — a failure status is a *RemoteError — and
// whatever decodes re-encodes to bytes that decode to the same value.
func FuzzTransportBody(f *testing.F) {
	blocks := chainOf(f, 2)
	prop := &endorser.Proposal{TxID: "tx", ChannelID: "ch", Chaincode: "cc", Function: "fn",
		Args: [][]byte{[]byte("a"), nil}, Creator: []byte("me"), Timestamp: time.Unix(1575887400, 5).UTC(), Signature: []byte{1}}
	deliver := blockstore.AppendBlock(nil, blocks[1])
	for _, seed := range [][]byte{
		// Request layouts, past the op byte.
		codec.AppendUvarint(nil, 3),
		codec.AppendUvarint(nil, 1<<63+5),
		deliver,
		appendProposal(nil, prop),
		appendProposal(nil, &endorser.Proposal{}),
		// Replies.
		appendHello(nil, &HelloInfo{Name: "p", Channels: []string{"ch", "ch2"}, Orgs: []string{"Org1"}, CACertsPEM: [][]byte{[]byte("pem")}, Height: 4}),
		appendHello(nil, &HelloInfo{}),
		appendHeight(nil, 9),
		appendHeight(nil, 1<<64-1),
		appendStreamFrame(nil, blocks[0]),
		appendStreamFrame(nil, nil),
		network.AppendStatus(nil, network.CodeSimulationFailed, "chaincode said no"),
		network.AppendStatus(nil, network.CodeUnknownChannel, "not here"),
		appendEndorsement(nil, &endorser.Response{TxID: "tx", Status: 200, RWSet: []byte("rw"), Endorser: []byte("e"), Signature: []byte("s")},
			&trace.Span{Stage: trace.StageEndorse, Peer: "p", Start: time.Unix(1575887400, 7).UTC(), Duration: time.Millisecond}),
		// Hostile shapes.
		deliver[:len(deliver)-3],
		{0x02, 't'},
		[]byte(`{"op":"hello"}`),
		{},
	} {
		f.Add(seed)
	}

	structured := func(t *testing.T, what string, err error) {
		t.Helper()
		var remote *RemoteError
		if !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, codec.ErrMalformed) &&
			!errors.Is(err, codec.ErrChecksum) && !errors.As(err, &remote) {
			t.Fatalf("%s: unstructured decode error: %v", what, err)
		}
	}
	// layout checks one decoder: decode body, and if every byte was
	// accounted for, re-encode and require the same value back.
	layout := func(t *testing.T, what string, body []byte, dec func(*codec.Dec) any, enc func(any) []byte) {
		t.Helper()
		d := codec.NewDec(body)
		v := dec(d)
		if err := d.Finish(); err != nil {
			structured(t, what, err)
			return
		}
		d = codec.NewDec(enc(v))
		if again := dec(d); d.Finish() != nil || !reflect.DeepEqual(again, v) {
			t.Fatalf("%s: %+v re-decoded as %+v, %v", what, v, again, d.Err())
		}
	}
	type endorsement struct {
		resp *endorser.Response
		span trace.Span
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		layout(t, "blocksFrom request", body,
			func(d *codec.Dec) any { return d.Uvarint() },
			func(v any) []byte { return codec.AppendUvarint(nil, v.(uint64)) })
		if b, err := blockstore.UnmarshalBlock(body); err != nil {
			structured(t, "deliver request", err)
		} else if again, err := blockstore.UnmarshalBlock(blockstore.AppendBlock(nil, b)); err != nil ||
			!bytes.Equal(blockstore.MarshalBlock(again), blockstore.MarshalBlock(b)) {
			t.Fatalf("deliver request %+v re-decoded as %+v, %v", b, again, err)
		}
		layout(t, "endorse request", body,
			func(d *codec.Dec) any { return decodeProposal(d) },
			func(v any) []byte { return appendProposal(nil, v.(*endorser.Proposal)) })

		if b, err := decodeStreamFrame(body); err != nil {
			structured(t, "stream frame", err)
		} else {
			again, err := decodeStreamFrame(appendStreamFrame(nil, b))
			if err != nil || (again == nil) != (b == nil) ||
				(b != nil && !bytes.Equal(blockstore.MarshalBlock(again), blockstore.MarshalBlock(b))) {
				t.Fatalf("stream frame %+v re-decoded as %+v, %v", b, again, err)
			}
		}

		layout(t, "hello", body,
			func(d *codec.Dec) any { return decodeHello(d) },
			func(v any) []byte { h := v.(HelloInfo); return appendHello(nil, &h) })
		layout(t, "height", body,
			func(d *codec.Dec) any { return decodeHeight(d) },
			func(v any) []byte { return appendHeight(nil, v.(uint64)) })
		layout(t, "endorsement", body,
			func(d *codec.Dec) any { r, s := decodeEndorsement(d); return endorsement{r, s} },
			func(v any) []byte { e := v.(endorsement); return appendEndorsement(nil, e.resp, &e.span) })
	})
}
