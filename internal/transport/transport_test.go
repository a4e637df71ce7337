package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/gossip"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// fixture is a trust domain shared by every peer in a test: one CA, one
// MSP, one client identity — the in-process stand-in for the network a
// serving process would expose over hello.
type fixture struct {
	t      testing.TB
	ca     *identity.CA
	msp    *identity.MSP
	client *identity.SigningIdentity
	nextTx int
	// hosts maps each newPeer channel instance back to the single-channel
	// host NewHostServer serves it through.
	hosts map[*peer.Peer]*peer.Host
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	client, err := ca.Enroll("client0", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, ca: ca, msp: identity.NewMSP(ca), client: client, hosts: make(map[*peer.Peer]*peer.Host)}
}

func (f *fixture) newPeer(name string) *peer.Peer {
	f.t.Helper()
	signer, err := f.ca.Enroll(name, identity.RolePeer)
	if err != nil {
		f.t.Fatal(err)
	}
	host, err := peer.NewHost(peer.Config{Name: name, Signer: signer, MSP: f.msp, Channels: []string{"ch"}})
	if err != nil {
		f.t.Fatal(err)
	}
	p := host.Channel("ch")
	f.hosts[p] = host
	if err := p.InstallChaincode(provenance.ChaincodeName, provenance.New(),
		endorser.SignedBy("Org1MSP")); err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(p.Stop)
	return p
}

func (f *fixture) serverConfig() ServerConfig {
	return ServerConfig{
		Orgs:       []string{"Org1"},
		CACertsPEM: [][]byte{f.ca.CertPEM()},
	}
}

func (f *fixture) serve(p *peer.Peer) *Server {
	f.t.Helper()
	srv, err := NewHostServer("127.0.0.1:0", f.hosts[p], f.serverConfig())
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { srv.Close() })
	return srv
}

func (f *fixture) dial(addr string) *Client {
	f.t.Helper()
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { c.Close() })
	return c
}

// propose builds and signs a client proposal for newPeer's channel.
func (f *fixture) propose(fn string, args ...string) *endorser.Proposal {
	f.t.Helper()
	return f.proposeOn("ch", fn, args...)
}

// proposeOn builds and signs a client proposal naming channel.
func (f *fixture) proposeOn(channel, fn string, args ...string) *endorser.Proposal {
	f.t.Helper()
	raw := make([][]byte, len(args))
	for i, a := range args {
		raw[i] = []byte(a)
	}
	creator := f.client.Serialize()
	txID, err := endorser.NewTxID(creator)
	if err != nil {
		f.t.Fatal(err)
	}
	p := &endorser.Proposal{
		TxID:      txID,
		ChannelID: channel,
		Chaincode: provenance.ChaincodeName,
		Function:  fn,
		Args:      raw,
		Creator:   creator,
		Timestamp: time.Now().UTC(),
	}
	sig, err := f.client.Sign(p.SignedBytes())
	if err != nil {
		f.t.Fatal(err)
	}
	p.Signature = sig
	return p
}

// commitTx endorses one provenance Set on p and commits it as the next
// block, returning after persistence.
func (f *fixture) commitTx(p *peer.Peer, key string) {
	f.t.Helper()
	f.commitBlock(p, f.envelope(p, key))
}

// envelope endorses one provenance Set on p (the chaincode instantiation
// when p's chain is empty) and returns the client-signed transaction.
func (f *fixture) envelope(p *peer.Peer, key string) blockstore.Envelope {
	f.t.Helper()
	f.nextTx++
	fn := provenance.FnSet
	args := []string{fmt.Sprintf(`{"key":%q,"checksum":"sha256:%04d"}`, key, f.nextTx)}
	if p.Height() == 0 {
		// First block instantiates the chaincode.
		fn, args = peer.InitFunction, nil
	}
	prop := f.proposeOn(p.ChannelID(), fn, args...)
	resp, err := p.ProcessProposal(prop)
	if err != nil {
		f.t.Fatal(err)
	}
	env := blockstore.Envelope{
		TxID:      prop.TxID,
		ChannelID: prop.ChannelID,
		Chaincode: prop.Chaincode,
		Function:  prop.Function,
		Args:      prop.Args,
		Creator:   prop.Creator,
		Timestamp: prop.Timestamp,
		RWSet:     resp.RWSet,
		Response:  resp.Payload,
		Events:    resp.Events,
		Endorsements: []blockstore.Endorsement{
			{Endorser: resp.Endorser, Signature: resp.Signature},
		},
	}
	sig, err := f.client.Sign(env.SignedBytes())
	if err != nil {
		f.t.Fatal(err)
	}
	env.Signature = sig
	return env
}

// commitBlock commits envs as p's next block, returning it after
// persistence.
func (f *fixture) commitBlock(p *peer.Peer, envs ...blockstore.Envelope) *blockstore.Block {
	f.t.Helper()
	b := blockstore.NewBlock(p.Height(), p.Ledger().LastHash(), envs)
	p.DeliverBlock(b)
	p.Sync()
	return b
}

func waitHeight(t *testing.T, p *peer.Peer, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for p.Height() < want {
		if time.Now().After(deadline) {
			t.Fatalf("height %d, want %d", p.Height(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHelloHeightFingerprint(t *testing.T) {
	f := newFixture(t)
	p := f.newPeer("peer0")
	f.commitTx(p, "item-a")
	f.commitTx(p, "item-b")
	c := f.dial(f.serve(p).Addr())

	info := c.Hello()
	if info.Name != "peer0" || info.ChannelID != "ch" || len(info.Orgs) != 1 || info.Orgs[0] != "Org1" {
		t.Errorf("hello = %+v", info)
	}
	if len(info.CACertsPEM) != 1 {
		t.Fatalf("hello carried %d CA certs", len(info.CACertsPEM))
	}
	if _, err := identity.NewVerifyingCA(info.CACertsPEM[0]); err != nil {
		t.Errorf("hello trust anchor unusable: %v", err)
	}
	h, err := c.Height()
	if err != nil || h != 2 {
		t.Errorf("remote height = %d, %v", h, err)
	}
	// The fingerprint op (08) is retired: a TCP client cannot make the peer
	// hash its whole state. Its code is refused like any op outside the
	// table, and the connection keeps serving.
	var remote *RemoteError
	if _, err := c.roundTrip(network.Op{Code: 0x08, Name: "fingerprint"}, "", nil); !errors.As(err, &remote) || remote.Code != network.CodeBadRequest {
		t.Errorf("fingerprint request: err = %v, want a RemoteError with %q", err, network.CodeBadRequest)
	}
	if h, err := c.Height(); err != nil || h != 2 {
		t.Errorf("remote height after the fingerprint request = %d, %v", h, err)
	}
}

func TestRemoteEndorseAndQuery(t *testing.T) {
	f := newFixture(t)
	p := f.newPeer("peer0")
	f.commitTx(p, "endorse-seed") // instantiates the chaincode
	c := f.dial(f.serve(p).Addr())

	// A remote endorsement is byte-compatible with a local one: the MSP
	// verifies its signature like any endorsement.
	prop := f.propose(provenance.FnSet, `{"key":"remote-item","checksum":"sha256:aa"}`)
	resp, err := c.ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resp.Verify(f.msp); err != nil {
		t.Errorf("remote endorsement does not verify: %v", err)
	}

	// Commit it locally, then query the record over the transport: a read
	// crosses the wire as a signed proposal, endorsed like any other, and
	// the record is the response's payload.
	f.commitTx(p, "remote-item")
	q, err := c.ProcessProposal(f.propose(provenance.FnGet, "remote-item"))
	if err != nil {
		t.Fatal(err)
	}
	if q.Status != shim.OK || len(q.Payload) == 0 {
		t.Errorf("remote query = %+v", q)
	}

	// Structured error codes classify remote failures.
	unknown := f.propose("fn")
	unknown.Chaincode = "no-such-cc"
	if unknown.Signature, err = f.client.Sign(unknown.SignedBytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProcessProposal(unknown); err == nil {
		t.Error("unknown chaincode query succeeded")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != network.CodeUnknownChaincode {
			t.Errorf("unknown chaincode err = %v", err)
		}
	}
	badProp := f.propose("no-such-function")
	if _, err := c.ProcessProposal(badProp); err == nil {
		t.Error("bad proposal endorsed")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != network.CodeSimulationFailed {
			t.Errorf("failed simulation err = %v", err)
		}
	}
}

// TestGossipPullOverTCP is the tentpole property: a peer in a (simulated)
// separate process catches up purely by pulling blocks over a TCP
// transport member, and lands on the identical state fingerprint.
func TestGossipPullOverTCP(t *testing.T) {
	f := newFixture(t)
	source := f.newPeer("peer0")
	for i := 0; i < 5; i++ {
		f.commitTx(source, fmt.Sprintf("pull-%d", i))
	}
	edge := f.newPeer("peer1")
	c := f.dial(f.serve(source).Addr())
	remote := c.Member()
	if remote.Name() != "peer0" {
		t.Errorf("remote member name = %q", remote.Name())
	}

	g := gossip.New(gossip.Config{Interval: 10 * time.Millisecond}, edge, remote)
	defer g.Stop()
	waitHeight(t, edge, source.Height())
	if err := edge.Ledger().VerifyChain(); err != nil {
		t.Errorf("edge chain: %v", err)
	}
	if edge.StateFingerprint() != source.StateFingerprint() {
		t.Error("state fingerprints diverge after TCP catch-up")
	}
}

// TestGossipPushOverTCP exercises the reverse direction: the local gossip
// network pushes blocks to a remote member via deliver frames, flushing
// its pipeline with one sync per pulled batch.
func TestGossipPushOverTCP(t *testing.T) {
	f := newFixture(t)
	local := f.newPeer("peer0")
	remotePeer := f.newPeer("peer1")
	for i := 0; i < 4; i++ {
		f.commitTx(local, fmt.Sprintf("push-%d", i))
	}
	c := f.dial(f.serve(remotePeer).Addr())
	remote := c.Member()
	g := gossip.New(gossip.Config{Interval: 10 * time.Millisecond}, local, remote)
	defer g.Stop()
	waitHeight(t, remotePeer, local.Height())
	if remotePeer.StateFingerprint() != local.StateFingerprint() {
		t.Error("state fingerprints diverge after TCP push")
	}
}

// TestDeliverRejectsForgedDataHash pins the wire boundary: a block whose
// envelopes no longer match its header's data hash is refused when it is
// decoded and handed to the peer, without consuming its height, and the
// genuine block commits after it.
func TestDeliverRejectsForgedDataHash(t *testing.T) {
	f := newFixture(t)
	p := f.newPeer("peer0")
	f.commitTx(p, "wire-seed") // instantiates the chaincode
	c := f.dial(f.serve(p).Addr())
	before := p.Height()

	genuine := blockstore.NewBlock(before, p.Ledger().LastHash(),
		[]blockstore.Envelope{f.envelope(p, "wire-a")})
	// A signed, endorsed envelope of its own, so only the data hash tells
	// the forged block from a good one.
	forged := &blockstore.Block{
		Header:    genuine.Header,
		Envelopes: []blockstore.Envelope{f.envelope(p, "wire-b")},
	}
	if err := c.Deliver(forged); err != nil {
		t.Fatalf("deliver forged: %v", err)
	}
	if h, err := c.SyncRemote(); err != nil || h != before {
		t.Fatalf("after the forged block: height %d, %v; want %d", h, err, before)
	}
	if err := c.Deliver(genuine); err != nil {
		t.Fatalf("deliver genuine: %v", err)
	}
	if h, err := c.SyncRemote(); err != nil || h != before+1 {
		t.Fatalf("after the genuine block: height %d, %v; want %d", h, err, before+1)
	}
}

// writeFrame writes body as one frame addressed to channel, the way a
// client sends a request and a server its reply.
func writeFrame(w io.Writer, channel string, body []byte) error {
	f := network.NewFrame("", channel)
	defer f.Release()
	f.B = append(f.B, body...)
	return f.Send(w)
}

// rawServer runs serve on every connection to a loopback listener of its
// own, for a test that plays a peer the op table would not be: half-open,
// hostile, or garbling its replies.
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

// chainOf builds a valid hash-chained run of empty blocks for
// protocol-level tests that do not need real transactions.
func chainOf(t testing.TB, n int) []*blockstore.Block {
	t.Helper()
	sto := blockstore.NewStore()
	chain := make([]*blockstore.Block, n)
	for i := range chain {
		b := blockstore.NewBlock(sto.Height(), sto.LastHash(), nil)
		if err := sto.Append(b); err != nil {
			t.Fatal(err)
		}
		chain[i] = b
	}
	return chain
}

// TestMidStreamDisconnect cuts the connection after two of five streamed
// blocks: fn must have had blocks 0 and 1, in order, before the error, and
// the next call must redial and stream again.
func TestMidStreamDisconnect(t *testing.T) {
	blocks := chainOf(t, 5)
	addr := rawServer(t, func(conn net.Conn) {
		reply := func(body []byte) { _ = writeFrame(conn, "", body) }
		ok := network.AppendStatus(nil, network.CodeNone, "")
		in := bufio.NewReader(conn)
		for {
			body, err := network.ReadFrame(in)
			if err != nil || len(body) == 0 {
				return
			}
			switch body[0] {
			case opHello.Code:
				reply(appendHello(ok, &HelloInfo{Name: "half-open"}))
			case opBlocksFrom.Code:
				// Two frames, then drop the connection mid-stream.
				reply(appendStreamFrame(nil, blocks[0]))
				reply(appendStreamFrame(nil, blocks[1]))
				return
			}
		}
	})

	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []uint64
	collect := func(b *blockstore.Block) error { got = append(got, b.Header.Number); return nil }
	if err := c.Blocks(0, collect); err == nil {
		t.Fatal("mid-stream disconnect reported no error")
	}
	if !slices.Equal(got, []uint64{0, 1}) {
		t.Fatalf("fn had blocks %v before the error, want [0 1]", got)
	}
	// The member adapter streams through the same client: the next round
	// re-dials and pulls again, and fn again has the prefix.
	got = nil
	m := &Member{c: c, name: "half-open"}
	if err := m.Blocks(0, collect); err == nil || !slices.Equal(got, []uint64{0, 1}) {
		t.Errorf("member stream = %v, %v; want [0 1] and an error", got, err)
	}
}

// TestBlocksDeliversEachFrameBeforeTheNext: the client hands each streamed
// block to fn as its frame arrives. The fake peer sends a frame only once fn
// has the block before it, so a client that collected the tail before
// handing any of it over would stall at block 0.
func TestBlocksDeliversEachFrameBeforeTheNext(t *testing.T) {
	const n = 10000
	blocks := chainOf(t, n)
	handed := make(chan struct{}, 1)
	stalled := make(chan uint64, 1)
	addr := rawServer(t, func(conn net.Conn) {
		reply := func(body []byte) error { return writeFrame(conn, "", body) }
		ok := network.AppendStatus(nil, network.CodeNone, "")
		in := bufio.NewReader(conn)
		for {
			body, err := network.ReadFrame(in)
			if err != nil || len(body) == 0 {
				return
			}
			switch body[0] {
			case opHello.Code:
				_ = reply(appendHello(ok, &HelloInfo{Name: "lockstep"}))
			case opBlocksFrom.Code:
				for _, b := range blocks {
					if reply(appendStreamFrame(nil, b)) != nil {
						return
					}
					select {
					case <-handed:
					case <-time.After(2 * time.Second):
						stalled <- b.Header.Number
						return
					}
				}
				_ = reply(appendStreamFrame(nil, nil))
			}
		}
	})

	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var next uint64
	err = c.Blocks(0, func(b *blockstore.Block) error {
		if b.Header.Number != next {
			return fmt.Errorf("fn got block %d, want %d", b.Header.Number, next)
		}
		next++
		handed <- struct{}{}
		return nil
	})
	select {
	case num := <-stalled:
		t.Fatalf("block %d not handed over before the next was sent", num)
	default:
	}
	if err != nil || next != n {
		t.Fatalf("Blocks handed over %d of %d blocks: %v", next, n, err)
	}
}

// TestOversizedFrameClosesConnection: a frame header announcing more than
// MaxFrame must terminate the connection on both ends.
func TestOversizedFrameClosesConnection(t *testing.T) {
	f := newFixture(t)
	p := f.newPeer("peer0")
	srv := f.serve(p)

	// Client side: raw connection announcing an oversized request frame.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("server kept the connection open after an oversized frame")
	}

	// Server side: a malicious server announcing an oversized response.
	addr := rawServer(t, func(conn net.Conn) {
		_, _ = network.ReadFrame(bufio.NewReader(conn))
		_, _ = conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	})
	// No hello: the client is assembled on a bare network.Client.
	nc, err := network.Dial(addr, network.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{nc: nc}
	defer c.Close()
	if _, err := c.Height(); err == nil || !errors.Is(err, network.ErrFrameTooLarge) {
		t.Errorf("oversized response err = %v, want ErrFrameTooLarge", err)
	}
}

// TestReconnectAfterRestartConvergence: the serving peer's process dies
// and comes back on the same address; the joined side must reconnect and
// converge on blocks committed across the outage.
func TestReconnectAfterRestartConvergence(t *testing.T) {
	f := newFixture(t)
	source := f.newPeer("peer0")
	edge := f.newPeer("peer1")
	f.commitTx(source, "before-restart")

	srv, err := NewHostServer("127.0.0.1:0", f.hosts[source], f.serverConfig())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c, err := Dial(addr, ClientConfig{MinBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote := c.Member()
	g := gossip.New(gossip.Config{Interval: 10 * time.Millisecond}, edge, remote)
	defer g.Stop()
	waitHeight(t, edge, source.Height())

	// Kill the serving endpoint, commit through the outage, restart on the
	// same address.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	f.commitTx(source, "during-outage")
	time.Sleep(50 * time.Millisecond) // let a few failed rounds exercise the backoff path
	srv2, err := NewHostServer(addr, f.hosts[source], f.serverConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	waitHeight(t, edge, source.Height())
	if edge.StateFingerprint() != source.StateFingerprint() {
		t.Error("state fingerprints diverge after restart")
	}
}

// TestDialBackoffFailsFast: while the backoff window is open, calls fail
// with ErrBackoff instead of paying a connect timeout.
func TestDialBackoffFailsFast(t *testing.T) {
	f := newFixture(t)
	p := f.newPeer("peer0")
	srv := f.serve(p)
	addr := srv.Addr()
	c, err := Dial(addr, ClientConfig{MinBackoff: time.Minute, MaxBackoff: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()

	// First call: dead conn, immediate redial fails, backoff opens.
	if _, err := c.Height(); err == nil {
		t.Fatal("call against closed server succeeded")
	}
	start := time.Now()
	if _, err := c.Height(); !errors.Is(err, ErrBackoff) {
		t.Errorf("in-backoff err = %v, want ErrBackoff", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("backoff fail-fast took %v", elapsed)
	}
}

// TestUndecodableReplyKeepsConnection: a reply frame that arrives whole but
// does not decode fails that call only — the frame boundary held, the rule
// the servers follow for requests — so the next call runs on the same
// connection with no redial.
func TestUndecodableReplyKeepsConnection(t *testing.T) {
	var conns atomic.Int32
	ok := network.AppendStatus(nil, network.CodeNone, "")
	addr := rawServer(t, func(conn net.Conn) {
		conns.Add(1)
		in := bufio.NewReader(conn)
		torn := true
		for {
			body, err := network.ReadFrame(in)
			if err != nil {
				return
			}
			reply := appendHello(ok, &HelloInfo{Name: "garbler"})
			if len(body) > 0 && body[0] == opHeight.Code {
				if reply = appendHeight(ok, 7); torn {
					reply, torn = []byte{0x00, 0xFF}, false // success status, unterminated uvarint
				}
			}
			if writeFrame(conn, "", reply) != nil {
				return
			}
		}
	})
	reg := metrics.NewRegistry()
	c, err := Dial(addr, ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Height(); !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, codec.ErrMalformed) {
		t.Fatalf("torn reply: err = %v, want a codec decode error", err)
	}
	if h, err := c.Height(); err != nil || h != 7 {
		t.Fatalf("Height after a torn reply = %d, %v", h, err)
	}
	if n, re := conns.Load(), reg.Snapshot()[metrics.TransportReconnects]; n != 1 || re != 0 {
		t.Errorf("server saw %d connections, %d reconnects; want 1 and 0", n, re)
	}
}
