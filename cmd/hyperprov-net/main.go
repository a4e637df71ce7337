// Command hyperprov-net demonstrates the multi-process deployment shape of
// the paper: four machines on one switch, talking over real TCP. It has
// three modes, and prints its usage when given none:
//
//	-serve        run only the off-chain storage server (the SSHFS node)
//	-peer-serve   run the network with every peer on a TCP listener, submit a
//	              workload through a TCP store (first item read back), and
//	              keep serving so other processes can join
//	-join ADDRS   run a gossip-only peer in its own process: fetch trust
//	              anchors from a serving peer, catch up over TCP
//	              anti-entropy, and verify height + state fingerprint
//
// Every peer-to-peer connection carries binary RPC frames over TCP and can be
// link-shaped (-peer-latency / -peer-mbps), so blocks disseminate with the
// same cost structure as the paper's LAN.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hyperprov/hyperprov/internal/admin"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/gossip"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/trace"
	"github.com/hyperprov/hyperprov/internal/transport"
)

type options struct {
	serve     bool
	peerServe bool
	join      string

	addr    string
	latency time.Duration
	mbps    float64

	peerListen  string
	peerLatency time.Duration
	peerMbps    float64
	listen      string

	txs          int
	name         string
	expectHeight uint64
	expectFP     string
	timeout      time.Duration
	runFor       time.Duration
	admin        string

	channels string
	channel  string
}

func main() {
	var o options
	flag.BoolVar(&o.serve, "serve", false, "run only the off-chain storage server")
	flag.BoolVar(&o.peerServe, "peer-serve", false, "run the network with peers exposed on TCP listeners")
	flag.StringVar(&o.join, "join", "", "comma-separated peer transport addresses to join via gossip")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:9733", "storage server address")
	flag.DurationVar(&o.latency, "latency", 2*time.Millisecond, "simulated one-way link latency to storage")
	flag.Float64Var(&o.mbps, "mbps", 360, "simulated storage link bandwidth (SSHFS effective, in Mbit/s)")
	flag.StringVar(&o.peerListen, "peer-listen", "", "comma-separated listen addresses for exposed peers (default ephemeral)")
	flag.DurationVar(&o.peerLatency, "peer-latency", 0, "simulated one-way latency per peer transport connection")
	flag.Float64Var(&o.peerMbps, "peer-mbps", 0, "simulated bandwidth per peer transport connection (Mbit/s)")
	flag.StringVar(&o.listen, "listen", "", "in -join mode: also serve this peer's transport on the given address")
	flag.IntVar(&o.txs, "txs", 4, "in -peer-serve mode: number of StoreData transactions to submit")
	flag.StringVar(&o.name, "name", "edge-peer", "in -join mode: the joining peer's name")
	flag.Uint64Var(&o.expectHeight, "expect-height", 0, "in -join mode: block height to wait for")
	flag.StringVar(&o.expectFP, "expect-fingerprint", "", "in -join mode: state fingerprint that must match after catch-up")
	flag.DurationVar(&o.timeout, "timeout", 60*time.Second, "in -join mode: catch-up deadline")
	flag.DurationVar(&o.runFor, "run-for", 0, "in -peer-serve/-join mode: keep serving for this duration (default: until SIGINT / immediate exit)")
	flag.StringVar(&o.admin, "admin", "", "serve the admin endpoint (/metrics, /healthz, /tracez, pprof) on this address, e.g. 127.0.0.1:0")
	flag.StringVar(&o.channels, "channels", "", "in -peer-serve mode: comma-separated channel IDs to serve (default: provchannel)")
	flag.StringVar(&o.channel, "channel", "", "in -join mode: channel to join (default: the serving host's first channel)")
	flag.Parse()

	var err error
	switch {
	case o.serve:
		err = runStorageServer(o)
	case o.peerServe:
		err = runPeerServe(o)
	case o.join != "":
		err = runJoin(o)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyperprov-net:", err)
		os.Exit(1)
	}
}

// startAdmin exposes one peer's observability surface when -admin is set:
// its pipeline metrics (unprefixed), the process's network-level registry
// (prefixed net_), the trace recorder, and a health summary. On a
// multi-channel host chPeers carries the host's per-channel peer instances;
// their pipeline metrics are then served with a channel="<id>" label (and
// the unlabeled default-channel registry is dropped to avoid duplicate
// metric families), and /healthz breaks height and commit age down per
// channel and reports the first connection error among remotes. Returns nil
// without error when the flag is unset.
func (o options) startAdmin(p *peer.Peer, chPeers []*peer.Peer, netReg *metrics.Registry,
	tracer *trace.Recorder, gossipCount func() int, remotes []*transport.Client) (*admin.Server, error) {
	if o.admin == "" {
		return nil, nil
	}
	regs := map[string]*metrics.Registry{}
	var chRegs map[string]map[string]*metrics.Registry
	if len(chPeers) > 1 {
		chRegs = make(map[string]map[string]*metrics.Registry, len(chPeers))
		for _, cp := range chPeers {
			chRegs[cp.ChannelID()] = map[string]*metrics.Registry{"": cp.Metrics()}
		}
	} else {
		regs[""] = p.Metrics()
	}
	regs["net_"] = netReg
	commitAge := func(cp *peer.Peer) int64 {
		if t := cp.LastCommitTime(); !t.IsZero() {
			return time.Since(t).Milliseconds()
		}
		return -1
	}
	srv, err := admin.New(o.admin, admin.Config{
		Registries:        regs,
		ChannelRegistries: chRegs,
		Tracer:            tracer,
		HealthFunc: func() admin.Health {
			h := admin.Health{Peer: p.Name(), Height: p.Height(), LastCommitAgeMs: commitAge(p)}
			for _, cp := range chPeers {
				h.Channels = append(h.Channels, admin.ChannelHealth{
					Channel: cp.ChannelID(), Height: cp.Height(), LastCommitAgeMs: commitAge(cp),
				})
			}
			h.GossipPeers = gossipCount()
			for _, c := range remotes {
				if h.TransportLastError = c.LastError(); h.TransportLastError != "" {
					break
				}
			}
			return h
		},
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("ADMIN %s\n", srv.URL())
	return srv, nil
}

func (o options) storageShape() network.LinkShape {
	return network.LinkShape{Latency: o.latency, Mbps: o.mbps}
}

func (o options) peerShape() network.LinkShape {
	return network.LinkShape{Latency: o.peerLatency, Mbps: o.peerMbps}
}

func runStorageServer(o options) error {
	srv, err := offchain.NewServer(o.addr, offchain.NewMemStore(), o.storageShape())
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("off-chain storage server listening on %s (latency=%v, %gMbps)\n",
		srv.Addr(), o.latency, o.mbps)
	waitForSignal(0)
	return nil
}

// runPeerServe starts the full network with every peer exposed on a TCP
// listener, submits a workload, prints the convergence target (height and
// state fingerprint), and keeps serving so -join processes can catch up.
func runPeerServe(o options) error {
	srv, err := offchain.NewServer(o.addr, offchain.NewMemStore(), o.storageShape())
	if err != nil {
		return err
	}
	defer srv.Close()
	store, err := offchain.NewRemoteStore(srv.Addr(), o.storageShape())
	if err != nil {
		return err
	}
	defer store.Close()

	cfg := fabric.DesktopConfig()
	cfg.Batch = orderer.BatchConfig{
		MaxMessageCount: 5, BatchTimeout: 200 * time.Millisecond, PreferredMaxBytes: 8 << 20,
	}
	cfg.Gossip = true
	cfg.PeerListen = true
	cfg.PeerLink = o.peerShape()
	if o.peerListen != "" {
		cfg.PeerListenAddrs = strings.Split(o.peerListen, ",")
	}
	if o.channels != "" {
		cfg.Channels = nil
		for _, ch := range strings.Split(o.channels, ",") {
			cfg.Channels = append(cfg.Channels, fabric.ChannelConfig{ID: strings.TrimSpace(ch)})
		}
	}
	n, err := fabric.NewNetwork(cfg)
	if err != nil {
		return err
	}
	defer n.Stop()
	channels := n.Channels()
	for _, ch := range channels {
		if err := ch.DeployChaincode(provenance.ChaincodeName,
			func() shim.Chaincode { return provenance.New() }); err != nil {
			return err
		}
	}
	// Host 0's per-channel peer instances feed the admin endpoint's
	// channel-labeled metrics and per-channel health.
	var chPeers []*peer.Peer
	if len(channels) > 1 {
		for _, ch := range channels {
			chPeers = append(chPeers, ch.Peers()[0])
		}
	}
	adminSrv, err := o.startAdmin(n.Peers()[0], chPeers, n.Metrics(), n.Tracer(),
		n.Gossip().MemberCount, n.Remotes())
	if err != nil {
		return err
	}
	if adminSrv != nil {
		defer adminSrv.Close()
	}

	payload := make([]byte, 16<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Submit the same keys on every channel: isolation means they land on
	// disjoint ledgers with independent fingerprints.
	for _, ch := range channels {
		gw, err := ch.NewGateway("client-" + ch.ChannelID())
		if err != nil {
			return err
		}
		client, err := core.New(gw, core.WithStore(store))
		if err != nil {
			return err
		}
		for i := 0; i < o.txs; i++ {
			key := fmt.Sprintf("net-item-%d", i)
			if _, err := client.StoreData(key, payload, core.PostOptions{
				Meta: map[string]string{"transport": "tcp", "channel": ch.ChannelID()},
			}); err != nil {
				return fmt.Errorf("store %s on %s: %w", key, ch.ChannelID(), err)
			}
		}
		// Read the first item back through the same TCP store.
		if o.txs > 0 {
			data, _, err := client.GetData("net-item-0")
			if err != nil {
				return fmt.Errorf("read back net-item-0 on %s: %w", ch.ChannelID(), err)
			}
			fmt.Printf("retrieved %d bytes on %s over the TCP store, checksum verified\n", len(data), ch.ChannelID())
		}
	}
	for _, ch := range channels {
		for _, p := range ch.Peers() {
			p.Sync()
		}
	}
	p0 := n.Peers()[0]
	fmt.Printf("PEERS %s\n", strings.Join(n.PeerAddrs(), ","))
	fmt.Printf("PRIMARY height=%d fingerprint=%s\n", p0.Height(), p0.StateFingerprint())
	if len(channels) > 1 {
		for _, ch := range channels {
			p := ch.Peers()[0]
			fmt.Printf("PRIMARY channel=%s height=%d fingerprint=%s\n",
				ch.ChannelID(), p.Height(), p.StateFingerprint())
		}
	}
	fmt.Println("serving peer transport; Ctrl-C to exit")
	waitForSignal(o.runFor)
	return nil
}

// runJoin starts a gossip-only peer in this process: it learns the
// channel, endorsement orgs, and CA trust anchors from a serving peer's
// hello handshake (certificates only — no private keys cross the wire),
// then catches up over TCP anti-entropy until it reaches the expected
// height, and verifies its state fingerprint.
func runJoin(o options) error {
	// The joining process's own observability state, created before dialing
	// so handshakes and catch-up traffic are counted from the first byte.
	tracer := trace.NewRecorder()
	netReg := metrics.NewRegistry()

	addrs := strings.Split(o.join, ",")
	clients := make([]*transport.Client, 0, len(addrs))
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for _, a := range addrs {
		c, err := transport.Dial(strings.TrimSpace(a), transport.ClientConfig{
			Channel: o.channel,
			Shape:   o.peerShape(),
			Metrics: netReg,
			Tracer:  tracer,
		})
		if err != nil {
			return err
		}
		clients = append(clients, c)
	}
	info := clients[0].Hello()
	if len(info.Channels) > 0 {
		fmt.Printf("joining channel %s (host serves %s)\n",
			info.ChannelID, strings.Join(info.Channels, ","))
	}

	// Build a verification-only MSP from the network's CA certificates.
	msp := identity.NewMSP()
	for _, pemBytes := range info.CACertsPEM {
		ca, err := identity.NewVerifyingCA(pemBytes)
		if err != nil {
			return fmt.Errorf("trust anchor: %w", err)
		}
		msp.AddCA(ca)
	}
	// The joining peer signs with a throwaway local identity: it never
	// endorses for the network, it only validates and commits.
	localCA, err := identity.NewCA("EdgeOrg-" + o.name)
	if err != nil {
		return err
	}
	signer, err := localCA.Enroll(o.name, identity.RolePeer)
	if err != nil {
		return err
	}
	host, err := peer.NewHost(peer.Config{Name: o.name, Signer: signer, MSP: msp, Channels: []string{info.ChannelID}, Tracer: tracer})
	if err != nil {
		return err
	}
	p := host.Channel(info.ChannelID)
	defer p.Stop()
	// Same derivation the serving network used, so both sides validate
	// endorsements against the identical policy.
	policy := fabric.PolicyFor(info.Orgs)
	if err := p.InstallChaincode(provenance.ChaincodeName, provenance.New(), policy); err != nil {
		return err
	}
	if o.listen != "" {
		srv, err := transport.NewHostServer(o.listen, host, transport.ServerConfig{
			Orgs:       info.Orgs,
			CACertsPEM: info.CACertsPEM,
			Shape:      o.peerShape(),
			Metrics:    netReg,
			Tracer:     tracer,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("serving joined peer on %s\n", srv.Addr())
	}

	members := []gossip.Member{p}
	for _, c := range clients {
		members = append(members, c.Member())
	}
	g := gossip.New(gossip.Config{Interval: 25 * time.Millisecond}, members...)
	defer g.Stop()
	g.SetMetrics(netReg)
	g.SetTracer(tracer)

	adminSrv, err := o.startAdmin(p, nil, netReg, tracer, g.MemberCount, clients)
	if err != nil {
		return err
	}
	if adminSrv != nil {
		defer adminSrv.Close()
	}

	deadline := time.Now().Add(o.timeout)
	for p.Height() < o.expectHeight {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out at height %d, want %d", p.Height(), o.expectHeight)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := p.Ledger().VerifyChain(); err != nil {
		return fmt.Errorf("chain verification: %w", err)
	}
	fp := p.StateFingerprint()
	fmt.Printf("CONVERGED height=%d fingerprint=%s\n", p.Height(), fp)
	if o.expectFP != "" && fp != o.expectFP {
		return fmt.Errorf("state fingerprint mismatch: got %s, want %s", fp, o.expectFP)
	}
	if o.runFor > 0 {
		// Keep serving (gossip, transport, admin) so other processes can
		// inspect this peer after convergence.
		waitForSignal(o.runFor)
	}
	return nil
}

// waitForSignal blocks until SIGINT/SIGTERM, or for d when d > 0.
func waitForSignal(d time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if d > 0 {
		select {
		case <-sig:
		case <-time.After(d):
		}
		return
	}
	<-sig
}
