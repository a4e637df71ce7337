package transport

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/peer"
)

// newHost builds a volatile two-channel host with the provenance chaincode
// installed on every channel.
func (f *fixture) newHost(name string, channels ...string) *peer.Host {
	f.t.Helper()
	signer, err := f.ca.Enroll(name, identity.RolePeer)
	if err != nil {
		f.t.Fatal(err)
	}
	h, err := peer.NewHost(peer.Config{Name: name, Signer: signer, MSP: f.msp, Channels: channels})
	if err != nil {
		f.t.Fatal(err)
	}
	for _, ch := range channels {
		if err := h.Channel(ch).InstallChaincode(provenance.ChaincodeName, provenance.New(),
			endorser.SignedBy("Org1MSP")); err != nil {
			f.t.Fatal(err)
		}
	}
	f.t.Cleanup(h.Stop)
	return h
}

// serveHost exposes every channel of the host on one listener.
func (f *fixture) serveHost(h *peer.Host) *Server {
	f.t.Helper()
	srv, err := NewHostServer("127.0.0.1:0", h, f.serverConfig())
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { srv.Close() })
	return srv
}

// One listener, two channels: each client's frames must reach its own
// channel's ledger, and the hello must answer per channel.
func TestHostServerRoutesPerChannel(t *testing.T) {
	f := newFixture(t)
	h := f.newHost("host0", "alpha", "beta")
	f.commitTx(h.Channel("alpha"), "a-key")
	f.commitTx(h.Channel("alpha"), "a-key2")
	f.commitTx(h.Channel("beta"), "b-key")
	srv := f.serveHost(h)

	for _, tc := range []struct {
		channel string
		height  uint64
	}{{"alpha", 2}, {"beta", 1}} {
		c, err := Dial(srv.Addr(), ClientConfig{Channel: tc.channel})
		if err != nil {
			t.Fatalf("dial channel %s: %v", tc.channel, err)
		}
		defer c.Close()
		info := c.Hello()
		if len(info.Channels) != 2 || info.Channels[0] != "alpha" || info.Channels[1] != "beta" {
			t.Errorf("hello served channels %v, want [alpha beta]", info.Channels)
		}
		if info.Height != tc.height {
			t.Errorf("channel %s height %d, want %d", tc.channel, info.Height, tc.height)
		}
		if height, err := c.Height(); err != nil || height != tc.height {
			t.Errorf("channel %s remote height %d, %v; want %d", tc.channel, height, err, tc.height)
		}
	}
}

// A request frame that names no channel is answered like one naming an
// unserved channel: CodeUnknownChannel, listing the channels the host does
// serve. No channel is a default, so Dial without one fails.
func TestChannelLessFrameRefused(t *testing.T) {
	f := newFixture(t)
	h := f.newHost("host1", "alpha", "beta")
	f.commitTx(h.Channel("alpha"), "only-on-alpha")
	srv := f.serveHost(h)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	in := bufio.NewReader(conn)
	for _, op := range []network.Op{opHello, opHeight} {
		if err := writeFrame(conn, "", []byte{op.Code}); err != nil {
			t.Fatal(err)
		}
		reply, err := network.ReadFrame(in)
		if err != nil {
			t.Fatalf("%s: connection dropped: %v", op.Name, err)
		}
		var remote *RemoteError
		if err := replyStatus(codec.NewDec(reply)); !errors.As(err, &remote) || remote.Code != network.CodeUnknownChannel {
			t.Fatalf("channel-less %s: err = %v, want a RemoteError with %q", op.Name, err, network.CodeUnknownChannel)
		}
		if !strings.Contains(remote.Msg, "[alpha beta]") {
			t.Errorf("channel-less %s: answer %q does not list the served channels", op.Name, remote.Msg)
		}
	}

	if c, err := Dial(srv.Addr(), ClientConfig{}); !errors.Is(err, ErrUnknownChannel) {
		t.Errorf("Dial without a channel: err = %v, want ErrUnknownChannel", err)
		if err == nil {
			c.Close()
		}
	}
}

// A join targeting a channel the host does not serve must fail fast with
// the structured sentinel, not hang or return a generic failure.
func TestUnknownChannelRejected(t *testing.T) {
	f := newFixture(t)
	h := f.newHost("host2", "alpha", "beta")
	srv := f.serveHost(h)

	_, err := Dial(srv.Addr(), ClientConfig{Channel: "gamma"})
	if err == nil {
		t.Fatal("dial on unserved channel succeeded")
	}
	if !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("error %v does not match ErrUnknownChannel", err)
	}
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("error %v is not a RemoteError", err)
	}

	// The rejection must not poison the listener: a correctly scoped client
	// still gets through.
	c, err := Dial(srv.Addr(), ClientConfig{Channel: "beta"})
	if err != nil {
		t.Fatalf("dial after rejection: %v", err)
	}
	defer c.Close()
	if _, err := c.Height(); err != nil {
		t.Fatalf("height after rejection: %v", err)
	}
}

// A frame routed to chan-b carrying a proposal signed for chan-a is refused
// with a structured error and endorsed on neither channel; the connection
// still endorses chan-b's own proposals.
func TestEndorseRefusesProposalForAnotherChannel(t *testing.T) {
	f := newFixture(t)
	h := f.newHost("host4", "chan-a", "chan-b")
	f.commitTx(h.Channel("chan-a"), "a-init") // instantiates the chaincode
	f.commitTx(h.Channel("chan-b"), "b-init")
	c, err := Dial(f.serveHost(h).Addr(), ClientConfig{Channel: "chan-b"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	served := func() (n int64) {
		for _, ch := range h.Channels() {
			n += h.Channel(ch).Metrics().Counter(metrics.EndorsementsServed).Value()
		}
		return n
	}
	before := served()
	set := `{"key":"cross","checksum":"sha256:x"}`
	var remote *RemoteError
	if _, err := c.ProcessProposal(f.proposeOn("chan-a", provenance.FnSet, set)); !errors.As(err, &remote) || remote.Code != network.CodeBadRequest {
		t.Fatalf("chan-a proposal on a chan-b frame: err = %v, want a RemoteError with %q", err, network.CodeBadRequest)
	}
	if got := served(); got != before {
		t.Errorf("endorsements_served moved %d -> %d on a refused proposal", before, got)
	}
	if _, err := c.ProcessProposal(f.proposeOn("chan-b", provenance.FnSet, set)); err != nil {
		t.Errorf("chan-b proposal after the refusal: %v", err)
	}
}

// TestDialRefusesOverlongChannel: a channel ID longer than any peer accepts
// is refused by Dial before a frame is sent. Over 255 bytes the frame header
// cannot carry it at all.
func TestDialRefusesOverlongChannel(t *testing.T) {
	f := newFixture(t)
	h := f.newHost("host3", "alpha", "beta")
	reg := metrics.NewRegistry()
	srv, err := NewHostServer("127.0.0.1:0", h, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	for _, n := range []int{65, 255, 256, 300} {
		c, err := Dial(srv.Addr(), ClientConfig{Channel: strings.Repeat("c", n)})
		if err == nil {
			t.Errorf("%d-byte channel: Dial succeeded, hello from %q", n, c.Hello().Name)
			c.Close()
			continue
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			t.Errorf("%d-byte channel: refused by the host (%v), want refused before sending", n, err)
		}
	}
	if got := reg.Snapshot()[metrics.TransportFramesReceived]; got != 0 {
		t.Errorf("the host received %d frames from refused dials, want 0", got)
	}
}
