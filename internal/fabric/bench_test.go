package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/transport"
)

// BenchmarkSubmitRealClock is the profiling handle on the per-transaction
// fixed cost: two clients submit metadata-only records to four peers with
// one-transaction blocks on device.NopClock (no modeled charge, only real
// work), and the clock stops once every peer has committed every block — the
// shape of benchmark/'s post_e2e workload, reachable by `go test
// -cpuprofile/-memprofile` (`make profile-post`). It exists to show where time
// and bytes go. Gains are judged by benchmark/ (BENCHMARK.json), never by
// this number.
func BenchmarkSubmitRealClock(b *testing.B) {
	const clients = 2
	n := newTestNetwork(b, testConfig())
	gws := make([]*Gateway, clients)
	for c := range gws {
		gw, err := n.NewGateway(fmt.Sprintf("bench%d", c))
		if err != nil {
			b.Fatal(err)
		}
		gws[c] = gw
		setRecord(b, gw, fmt.Sprintf("warm-%d", c), "sha256:warm")
	}
	// The endorsement plan's width: proposals every peer endorsed.
	asked := func() (sum int64) {
		for _, p := range n.Peers() {
			sum += p.Metrics().Counter(metrics.EndorsementsServed).Value()
		}
		return sum
	}
	asked0 := asked()
	signs0, verifies0 := identity.ECDSAOps()
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, gw := range gws {
		wg.Add(1)
		go func(gw *Gateway) {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				in := fmt.Sprintf(`{"key":"item-%d","checksum":"sha256:%d"}`, i, i)
				if _, err := gw.Submit(provenance.ChaincodeName, provenance.FnSet, []byte(in)); err != nil {
					b.Error(err)
					return
				}
			}
		}(gw)
	}
	wg.Wait()
	// Submit returns on the first peer's commit; the others' work belongs to
	// the transaction too.
	for _, p := range n.Peers() {
		for want := n.Orderer().Height(); p.Height() < want; {
			time.Sleep(100 * time.Microsecond)
		}
		p.Sync()
	}
	b.StopTimer()
	signs, verifies := identity.ECDSAOps()
	b.ReportMetric(float64(signs-signs0)/float64(b.N), "ecdsa-signs/op")
	b.ReportMetric(float64(verifies-verifies0)/float64(b.N), "ecdsa-verifies/op")
	b.ReportMetric(float64(asked()-asked0)/float64(b.N), "endorsements-asked/op")
}

// catchupJoiner is a volatile peer in a trust domain of its own, reached
// only over a loopback transport connection: what a process joining from
// another machine looks like to the network.
type catchupJoiner struct {
	host   *peer.Host
	peer   *peer.Peer
	server *transport.Server
	client *transport.Client
}

// newCatchupJoiner builds a joiner that trusts the network through caPEM
// alone — a verifying CA and an MSP of its own, so a cold VerifyCache and a
// real ECDSA verification for every signature on the chain — and delivers
// it block 0, the chaincode instantiation.
func newCatchupJoiner(b *testing.B, n *Network, genesis *blockstore.Block) *catchupJoiner {
	b.Helper()
	caPEM := n.CA().CertPEM()
	ca, err := identity.NewVerifyingCA(caPEM)
	if err != nil {
		b.Fatal(err)
	}
	edge, err := identity.NewCA("Edge")
	if err != nil {
		b.Fatal(err)
	}
	signer, err := edge.Enroll("joiner", identity.RolePeer)
	if err != nil {
		b.Fatal(err)
	}
	host, err := peer.NewHost(peer.Config{Name: "joiner", Signer: signer, MSP: identity.NewMSP(ca), Channels: []string{n.ChannelID()}})
	if err != nil {
		b.Fatal(err)
	}
	j := &catchupJoiner{host: host, peer: host.Channel(n.ChannelID())}
	if err := j.peer.InstallChaincode(provenance.ChaincodeName, provenance.New(), n.Policy()); err != nil {
		b.Fatal(err)
	}
	j.server, err = transport.NewHostServer("127.0.0.1:0", host, transport.ServerConfig{Orgs: []string{ca.Org()}, CACertsPEM: [][]byte{caPEM}})
	if err != nil {
		b.Fatal(err)
	}
	j.client, err = transport.Dial(j.server.Addr(), transport.ClientConfig{Channel: n.ChannelID()})
	if err != nil {
		b.Fatal(err)
	}
	j.deliver(b, []*blockstore.Block{genesis}, 1)
	return j
}

// deliver pushes blocks over the wire, waits for the joiner to persist them
// and requires it at height want.
func (j *catchupJoiner) deliver(b *testing.B, blocks []*blockstore.Block, want int) {
	for _, blk := range blocks {
		if err := j.client.Deliver(blk); err != nil {
			b.Fatal(err)
		}
	}
	if height, err := j.client.SyncRemote(); err != nil || height != uint64(want) {
		b.Fatalf("joiner at height %d (%v), want %d", height, err, want)
	}
}

func (j *catchupJoiner) close() {
	j.client.Close()
	j.server.Close()
	j.host.Stop()
}

// BenchmarkCatchupRealClock is the profiling handle on block replay: a cold
// joiner takes a chain of ten-transaction blocks over a loopback transport
// connection, four Deliver calls and one SyncRemote per iteration — the
// shape of benchmark/'s catchup workload, reachable by `go test
// -cpuprofile/-memprofile` (`make profile-catchup`). The source chain (200
// blocks after the instantiation) is built once through the normal flow on
// one peer; a joiner that has replayed all of it must hold the source's
// state fingerprint and is replaced, off the clock, by a fresh one. It
// exists to show where time and bytes go. Gains are judged by benchmark/
// (BENCHMARK.json), never by this number.
func BenchmarkCatchupRealClock(b *testing.B) {
	const blockTxs, window, windows = 10, 4, 50
	cfg := testConfig()
	cfg.PeerProfiles = cfg.PeerProfiles[:1]
	cfg.Batch = orderer.BatchConfig{MaxMessageCount: blockTxs, BatchTimeout: 500 * time.Millisecond, PreferredMaxBytes: 1 << 30}
	n := newTestNetwork(b, cfg)
	// Two blocks' worth of closed-loop submitters: while one block's ten wait
	// for their commit the other ten fill the next, so every block is cut
	// full and the timeout only ever cuts block 0.
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < 2*blockTxs; s++ {
		gw, err := n.NewGateway(fmt.Sprintf("bench%d", s))
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1); i <= blockTxs*window*windows; i = next.Add(1) {
				in := fmt.Sprintf(`{"key":"item-%d","checksum":"sha256:%d"}`, i, i)
				if _, err := gw.Submit(provenance.ChaincodeName, provenance.FnSet, []byte(in)); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	src := n.Peers()[0]
	for want := n.Orderer().Height(); src.Height() < want; {
		time.Sleep(100 * time.Microsecond)
	}
	src.Sync()
	blocks, fingerprint := chainOf(src), src.StateFingerprint()
	if len(blocks) != 1+window*windows {
		b.Fatalf("source chain has %d blocks, want %d", len(blocks), 1+window*windows)
	}

	var j *catchupJoiner
	retire := func() {
		if j == nil {
			return
		}
		if int(j.peer.Height()) == len(blocks) && j.peer.StateFingerprint() != fingerprint {
			b.Error("joiner replayed the chain to another state fingerprint")
		}
		j.close()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % windows
		if w == 0 {
			b.StopTimer()
			retire()
			j = newCatchupJoiner(b, n, blocks[0])
			b.StartTimer()
		}
		from := 1 + w*window
		j.deliver(b, blocks[from:from+window], from+window)
	}
	b.StopTimer()
	retire()
}
