package transport

import (
	"strings"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// A remote endorsement must record an endorse span on BOTH sides: the
// serving process under the frame-header trace ID, and the requesting
// process via the span shipped back in the response, marked Remote.
func TestRemoteEndorseSpanJoinsBothRecorders(t *testing.T) {
	f := newFixture(t)
	p := f.newPeer("peer0")

	serverTracer := trace.NewRecorder()
	srv, err := NewHostServer("127.0.0.1:0", f.hosts[p], ServerConfig{
		Orgs:       []string{"Org1"},
		CACertsPEM: [][]byte{f.ca.CertPEM()},
		Tracer:     serverTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	clientTracer := trace.NewRecorder()
	c, err := Dial(srv.Addr(), ClientConfig{Channel: "ch", Tracer: clientTracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// First invocation instantiates the chaincode.
	prop := f.propose("__init")
	if _, err := c.ProcessProposal(prop); err != nil {
		t.Fatal(err)
	}

	// Server side: span recorded under the frame-header trace ID (== txID).
	st, ok := serverTracer.Lookup(prop.TxID)
	if !ok {
		t.Fatal("server recorder has no trace for the proposal's txID")
	}
	if len(st.Spans) == 0 || st.Spans[0].Stage != trace.StageEndorse || !st.Spans[0].Remote {
		t.Errorf("server spans = %+v", st.Spans)
	}

	// Client side: the shipped-back span joined under the same ID, Remote.
	ct, ok := clientTracer.Lookup(prop.TxID)
	if !ok {
		t.Fatal("client recorder has no trace for the proposal's txID")
	}
	found := false
	for _, s := range ct.Spans {
		if s.Stage == trace.StageEndorse && s.Remote && s.Peer == "peer0" {
			found = true
		}
	}
	if !found {
		t.Errorf("client spans lack the remote endorse hop: %+v", ct.Spans)
	}
}

func TestClientTransportMetrics(t *testing.T) {
	f := newFixture(t)
	p := f.newPeer("peer0")
	srv := f.serve(p)

	reg := metrics.NewRegistry()
	c, err := Dial(srv.Addr(), ClientConfig{Channel: "ch", ClientConfig: network.ClientConfig{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if _, err := c.Height(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	// Hello (during Dial) + height: at least two exchanges.
	if snap[metrics.TransportFramesSent] < 2 || snap[metrics.TransportFramesReceived] < 2 {
		t.Errorf("frame counters = %v", snap)
	}
	if snap[metrics.TransportBytesSent] == 0 || snap[metrics.TransportBytesReceived] == 0 {
		t.Errorf("byte counters = %v", snap)
	}
	// Per-op RPC latency histograms exist for the ops used.
	if s := reg.Histogram(metrics.TransportRPC + "_" + opHeight.Name).Summary(); s.Count == 0 {
		t.Errorf("no height RPC latency recorded: %+v", s)
	}
	if c.LastError() != "" {
		t.Errorf("LastError = %q after success", c.LastError())
	}
}

// A server restart must surface as one reconnect, and the failure reason
// must be retained while the peer is down instead of being swallowed.
func TestClientReconnectCounterAndLastError(t *testing.T) {
	f := newFixture(t)
	p := f.newPeer("peer0")
	srv := f.serve(p)
	addr := srv.Addr()

	reg := metrics.NewRegistry()
	c, err := Dial(addr, ClientConfig{
		Channel:      "ch",
		ClientConfig: network.ClientConfig{Metrics: reg, MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	srv.Close()
	if _, err := c.Height(); err == nil {
		t.Fatal("height against closed server succeeded")
	}
	if c.LastError() == "" {
		t.Error("LastError empty after failure")
	}

	// Restart on the same address (retry briefly: the OS may hold the port).
	var srv2 *Server
	for i := 0; i < 50; i++ {
		srv2, err = NewHostServer(addr, f.hosts[p], f.serverConfig())
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { srv2.Close() })

	// Outlast the backoff gate and re-probe until the redial lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Height(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Snapshot()[metrics.TransportReconnects]; got < 1 {
		t.Errorf("reconnects = %d, want >= 1", got)
	}
	if c.LastError() != "" {
		t.Errorf("LastError = %q after recovery", c.LastError())
	}
}

// A pushed block delivery must bump the server's push counter and record
// gossip.deliver spans for the block's transactions.
func TestServerPushDeliveryObservability(t *testing.T) {
	f := newFixture(t)
	src := f.newPeer("src")
	dst := f.newPeer("dst")
	f.commitTx(src, "k1")

	reg := metrics.NewRegistry()
	tracer := trace.NewRecorder()
	srv, err := NewHostServer("127.0.0.1:0", f.hosts[dst], ServerConfig{
		Orgs:       []string{"Org1"},
		CACertsPEM: [][]byte{f.ca.CertPEM()},
		Metrics:    reg,
		Tracer:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	c := f.dial(srv.Addr())
	var pushed int64
	var last *blockstore.Block
	err = src.Blocks(0, func(b *blockstore.Block) error {
		pushed, last = pushed+1, b
		return c.Deliver(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("source has no blocks")
	}
	if _, err := c.SyncRemote(); err != nil {
		t.Fatal(err)
	}

	if got := reg.Snapshot()[metrics.GossipPushDeliveries]; got != pushed {
		t.Errorf("push deliveries = %d, want %d", got, pushed)
	}
	txID := last.Envelopes[0].TxID
	tr, ok := tracer.Lookup(txID)
	if !ok {
		t.Fatalf("no trace for delivered tx %s", txID)
	}
	has := false
	for _, s := range tr.Spans {
		if s.Stage == trace.StageGossipDeliver && strings.Contains(s.Peer, "dst") {
			has = true
		}
	}
	if !has {
		t.Errorf("spans = %+v", tr.Spans)
	}
}
