// Package fabric assembles a complete permissioned-blockchain network —
// CAs, peers, an ordering service, and channel configuration — and exposes
// a Gateway client that drives the execute–order–validate flow end to end.
// It is the stand-in for the Hyperledger Fabric deployment (peers and
// orderer in Docker containers) that HyperProv runs on.
package fabric

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/gossip"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/trace"
	"github.com/hyperprov/hyperprov/internal/transport"
)

// ConsensusType selects the ordering implementation.
type ConsensusType int

// Supported consensus types.
const (
	ConsensusSolo ConsensusType = iota + 1
	ConsensusRaft
)

// ChannelConfig describes one application channel of a network: an
// independent ledger with its own ordering instance, per-peer commit
// pipeline, and gossip stream.
type ChannelConfig struct {
	// ID names the channel.
	ID string
	// Batch optionally overrides Config.Batch for this channel's orderer
	// (zero value inherits it), so tenants can run different block-cutting
	// profiles.
	Batch orderer.BatchConfig
}

// Config describes a network to assemble.
type Config struct {
	// Channels lists the application channels the network serves. Every
	// peer hosts all of them; each channel gets its own orderer instance,
	// per-peer ledger + state + commit pipeline, and gossip stream. Empty
	// means one channel named "provchannel".
	Channels []ChannelConfig
	// Org is the organization name (the paper's network is single-org
	// with four peers).
	Org string
	// Orgs optionally configures a multi-organization consortium: one CA
	// per org, peers assigned round-robin, and a majority endorsement
	// policy. When set, Org is ignored.
	Orgs []string
	// PeerProfiles gives one device profile per peer; the network has
	// len(PeerProfiles) peers.
	PeerProfiles []device.Profile
	// OrdererProfile models the ordering node's hardware.
	OrdererProfile device.Profile
	// Clock scales modeled time; defaults to device.RealClock{} (1:1).
	Clock device.Clock
	// Batch is the orderer's block-cutting configuration.
	Batch orderer.BatchConfig
	// Consensus selects solo (default, as in the paper) or raft.
	Consensus ConsensusType
	// RaftNodes sizes the raft cluster (default 3).
	RaftNodes int
	// Gossip enables pull-based anti-entropy block dissemination between
	// peers, letting members that lose the ordering service catch up from
	// neighbours (see internal/gossip).
	Gossip bool
	// PeerListen exposes every peer on a TCP transport listener so other
	// OS processes can gossip with, endorse on, and query this network's
	// peers (see internal/transport). Addresses come from PeerListenAddrs,
	// or ephemeral 127.0.0.1 ports when unset.
	PeerListen bool
	// PeerListenAddrs optionally pins one listen address per peer; extra
	// peers beyond the list get ephemeral ports.
	PeerListenAddrs []string
	// PeerLink shapes every peer transport connection (applied to each
	// side's writes), modelling the LAN links between the paper's four
	// machines. Zero means unshaped.
	PeerLink network.LinkShape
	// Seed makes modeled jitter deterministic.
	Seed int64
}

// defaultChannel is the paper's single application channel.
const defaultChannel = "provchannel"

// DesktopConfig returns the paper's desktop setup: 4 peers (2 Xeon E5-1603,
// 1 i7-4700MQ, 1 i3-2310M) with the orderer co-located on a Xeon.
func DesktopConfig() Config {
	return Config{
		Channels: []ChannelConfig{{ID: defaultChannel}},
		Org:      "Org1",
		PeerProfiles: []device.Profile{
			device.XeonE51603, device.XeonE51603, device.I74700MQ, device.I32310M,
		},
		OrdererProfile: device.XeonE51603,
		Batch:          orderer.DefaultBatchConfig(),
		Consensus:      ConsensusSolo,
	}
}

// RPiConfig returns the paper's edge setup: 4 Raspberry Pi 3B+ devices on
// one switch, one of them also running the orderer.
func RPiConfig() Config {
	return Config{
		Channels: []ChannelConfig{{ID: defaultChannel}},
		Org:      "Org1",
		PeerProfiles: []device.Profile{
			device.RPi3BPlus, device.RPi3BPlus, device.RPi3BPlus, device.RPi3BPlus,
		},
		OrdererProfile: device.RPi3BPlus,
		Batch:          orderer.DefaultBatchConfig(),
		Consensus:      ConsensusSolo,
	}
}

// PolicyFor derives the channel endorsement policy from the consortium's
// organizations: single-org channels accept any member's endorsement (the
// paper's deployment); consortia require a majority of orgs. A process
// joining over the peer transport derives the same policy from the orgs in
// the hello handshake, so both sides validate blocks identically.
func PolicyFor(orgs []string) endorser.Policy {
	if len(orgs) > 1 {
		return endorser.MajorityOrgs(orgs)
	}
	return endorser.AnyOrg(orgs)
}

// channelRuntime bundles one channel's moving parts: its ordering instance,
// the per-host peer instances committing on it, and its gossip stream.
// Channels never share any of these, which is why their pipelines never
// contend.
type channelRuntime struct {
	id      string
	orderer orderer.Service
	peers   []*peer.Peer
	gossip  *gossip.Network
}

// Network is an assembled, running network: N peer hosts, each serving
// every configured channel, with one orderer instance and one gossip stream
// per channel.
type Network struct {
	cfg        Config
	cas        []*identity.CA
	ca         *identity.CA // CA of the first org; used for client enrollment
	msp        *identity.MSP
	hosts      []*peer.Host
	channels   map[string]*channelRuntime
	chOrder    []string
	servers    []*transport.Server
	remotes    []*transport.Client
	clock      device.Clock
	policy     endorser.Policy
	clients    atomic.Int64
	tracer     *trace.Recorder
	netMetrics *metrics.Registry
}

// channelConfigs resolves the configured channel list, defaulting to the
// paper's single channel.
func channelConfigs(cfg Config) []ChannelConfig {
	if len(cfg.Channels) > 0 {
		return cfg.Channels
	}
	return []ChannelConfig{{ID: defaultChannel}}
}

// NewNetwork assembles and starts a network: it enrolls peer and orderer
// identities, builds one orderer instance and one per-host peer instance
// per channel, wires every instance to its channel's ordered block stream,
// and leaves the network ready for chaincode deployment.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Org == "" {
		cfg.Org = "Org1"
	}
	if len(cfg.PeerProfiles) == 0 {
		return nil, errors.New("fabric: no peer profiles")
	}
	if cfg.Clock == nil {
		cfg.Clock = device.RealClock{}
	}
	channels := channelConfigs(cfg)
	chIDs := make([]string, len(channels))
	for i, chc := range channels {
		chIDs[i] = chc.ID
	}
	orgs := cfg.Orgs
	if len(orgs) == 0 {
		orgs = []string{cfg.Org}
	}
	msp := identity.NewMSP()
	cas := make([]*identity.CA, len(orgs))
	for i, org := range orgs {
		ca, err := identity.NewCA(org)
		if err != nil {
			return nil, fmt.Errorf("fabric: new CA for %s: %w", org, err)
		}
		cas[i] = ca
		msp.AddCA(ca)
	}
	policy := PolicyFor(orgs)

	n := &Network{
		cfg:        cfg,
		cas:        cas,
		ca:         cas[0],
		msp:        msp,
		channels:   make(map[string]*channelRuntime, len(channels)),
		chOrder:    chIDs,
		clock:      cfg.Clock,
		policy:     policy,
		tracer:     trace.NewRecorder(),
		netMetrics: metrics.NewRegistry(),
	}

	// One modeled ordering machine serves every channel (the usual Fabric
	// deployment co-locates the ordering service), but each channel gets
	// its own ordering instance: independent batch cutters, block chains,
	// and subscriber streams.
	ordExec := device.NewExecutor(cfg.OrdererProfile, cfg.Clock, cfg.Seed+1000)
	for _, chc := range channels {
		if n.channels[chc.ID] != nil {
			return nil, fmt.Errorf("fabric: duplicate channel %q", chc.ID)
		}
		batch := chc.Batch
		if batch == (orderer.BatchConfig{}) {
			batch = cfg.Batch
		}
		var svc orderer.Service
		switch cfg.Consensus {
		case ConsensusRaft:
			raftNodes := cfg.RaftNodes
			if raftNodes <= 0 {
				raftNodes = 3
			}
			svc = orderer.NewRaft(raftNodes, batch, orderer.DefaultRaftConfig(), ordExec, cfg.Seed)
		default:
			svc = orderer.NewSolo(batch, ordExec)
		}
		// The Service interface is unchanged; both built-in orderers expose
		// SetTracer as a concrete method, discovered here by assertion so a
		// third-party Service without tracing still assembles fine.
		if st, ok := svc.(interface{ SetTracer(*trace.Recorder) }); ok {
			st.SetTracer(n.tracer)
		}
		n.channels[chc.ID] = &channelRuntime{id: chc.ID, orderer: svc}
	}

	for i, prof := range cfg.PeerProfiles {
		orgCA := cas[i%len(cas)]
		name := fmt.Sprintf("peer%d.%s", i, orgCA.Org())
		signer, err := orgCA.Enroll(name, identity.RolePeer)
		if err != nil {
			n.Stop()
			return nil, fmt.Errorf("fabric: enroll %s: %w", name, err)
		}
		pcfg := peer.Config{
			Name:     name,
			Signer:   signer,
			MSP:      msp,
			Executor: device.NewExecutor(prof, cfg.Clock, cfg.Seed+int64(i)*17),
			Channels: chIDs,
		}
		// Exactly one host drives the recorder's commit spans and Complete
		// calls — every peer commits every block, so tracing all of them
		// would record duplicate stages and race the trace's completion.
		// (Transaction IDs are unique across channels, so one recorder can
		// serve all of host 0's channel instances.)
		if i == 0 {
			pcfg.Tracer = n.tracer
		}
		host, err := peer.NewHost(pcfg)
		if err != nil {
			n.Stop()
			return nil, fmt.Errorf("fabric: host %s: %w", name, err)
		}
		for _, ch := range chIDs {
			cr := n.channels[ch]
			inst := host.Channel(ch)
			inst.Start(cr.orderer.Subscribe())
			cr.peers = append(cr.peers, inst)
		}
		n.hosts = append(n.hosts, host)
	}
	if cfg.Gossip {
		for _, ch := range chIDs {
			cr := n.channels[ch]
			members := make([]gossip.Member, len(cr.peers))
			for i, p := range cr.peers {
				members[i] = p
			}
			gcfg := gossip.DefaultConfig()
			gcfg.Seed = cfg.Seed
			cr.gossip = gossip.New(gcfg, members...)
			cr.gossip.SetMetrics(n.netMetrics)
			cr.gossip.SetTracer(n.tracer)
		}
	}
	if cfg.PeerListen {
		caPEMs := make([][]byte, len(cas))
		for i, ca := range cas {
			caPEMs[i] = ca.CertPEM()
		}
		scfg := transport.ServerConfig{
			Orgs:       orgs,
			CACertsPEM: caPEMs,
			Shape:      cfg.PeerLink,
			Metrics:    n.netMetrics,
			Tracer:     n.tracer,
		}
		for i, host := range n.hosts {
			addr := "127.0.0.1:0"
			if i < len(cfg.PeerListenAddrs) {
				addr = cfg.PeerListenAddrs[i]
			}
			srv, err := transport.NewHostServer(addr, host, scfg)
			if err != nil {
				n.Stop()
				return nil, fmt.Errorf("fabric: expose %s: %w", host.Name(), err)
			}
			n.servers = append(n.servers, srv)
		}
	}
	return n, nil
}

// channel resolves a channel ID ("" = default channel) to its runtime.
func (n *Network) channel(ch string) (*channelRuntime, error) {
	if ch == "" {
		ch = n.chOrder[0]
	}
	cr, ok := n.channels[ch]
	if !ok {
		return nil, fmt.Errorf("fabric: unknown channel %q (serving %v)", ch, n.chOrder)
	}
	return cr, nil
}

// mustChannel is channel for the default-channel accessors, which have no
// error path and always name a served channel.
func (n *Network) mustChannel(ch string) *channelRuntime {
	cr, err := n.channel(ch)
	if err != nil {
		panic(err)
	}
	return cr
}

// PeerAddrs returns the listen addresses of the exposed peers, in peer
// order (empty unless PeerListen was set).
func (n *Network) PeerAddrs() []string {
	addrs := make([]string, len(n.servers))
	for i, s := range n.servers {
		addrs[i] = s.Addr()
	}
	return addrs
}

// JoinRemote dials a peer served by another process and joins it to the
// default channel's gossip membership: local peers pull the remote's blocks
// and push it theirs over TCP, with shape applied to this side's writes.
// The network must have been created with Gossip enabled.
func (n *Network) JoinRemote(addr string, shape network.LinkShape) (*transport.Member, error) {
	return n.JoinRemoteChannel(addr, "", shape)
}

// JoinRemoteChannel dials one channel of a (possibly multi-channel) host
// served by another process and joins it to that channel's gossip
// membership. The dial fails with transport.ErrUnknownChannel when the
// remote host does not serve ch; an empty ch targets the remote's default
// channel and joins the local default channel's gossip stream.
func (n *Network) JoinRemoteChannel(addr, ch string, shape network.LinkShape) (*transport.Member, error) {
	cr, err := n.channel(ch)
	if err != nil {
		return nil, err
	}
	if cr.gossip == nil {
		return nil, errors.New("fabric: gossip not enabled")
	}
	client, err := transport.Dial(addr, transport.ClientConfig{
		Channel: ch,
		Shape:   shape,
		Metrics: n.netMetrics,
		Tracer:  n.tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("fabric: join %s: %w", addr, err)
	}
	member, err := client.Member()
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("fabric: join %s: %w", addr, err)
	}
	n.remotes = append(n.remotes, client)
	cr.gossip.Add(member)
	return member, nil
}

// AddGossipPeer adds a default-channel peer that is NOT subscribed to the
// ordering service: it receives blocks exclusively through gossip
// anti-entropy, modelling an edge node without connectivity to the orderer.
// The network must have been created with Gossip enabled. The new peer has
// the full chaincode set installed.
func (n *Network) AddGossipPeer(prof device.Profile, ccs map[string]shim.Chaincode) (*peer.Peer, error) {
	cr := n.mustChannel("")
	if cr.gossip == nil {
		return nil, errors.New("fabric: gossip not enabled")
	}
	name := fmt.Sprintf("peer%d.%s", len(cr.peers), n.ca.Org())
	signer, err := n.ca.Enroll(name, identity.RolePeer)
	if err != nil {
		return nil, fmt.Errorf("fabric: enroll %s: %w", name, err)
	}
	host, err := peer.NewHost(peer.Config{
		Name:     name,
		Signer:   signer,
		MSP:      n.msp,
		Executor: device.NewExecutor(prof, n.clock, n.cfg.Seed+int64(len(cr.peers))*17),
		Channels: []string{cr.id},
	})
	if err != nil {
		return nil, fmt.Errorf("fabric: host %s: %w", name, err)
	}
	p := host.Channel(cr.id)
	for ccName, cc := range ccs {
		if err := p.InstallChaincode(ccName, cc, n.policy); err != nil {
			return nil, err
		}
	}
	cr.peers = append(cr.peers, p)
	cr.gossip.Add(p)
	return p, nil
}

// Gossip returns the default channel's gossip network, or nil when disabled.
func (n *Network) Gossip() *gossip.Network { return n.mustChannel("").gossip }

// GossipFor returns one channel's gossip network (nil when gossip is
// disabled) or an error for an unknown channel.
func (n *Network) GossipFor(ch string) (*gossip.Network, error) {
	cr, err := n.channel(ch)
	if err != nil {
		return nil, err
	}
	return cr.gossip, nil
}

// Tracer returns the network's transaction-lifecycle trace recorder. The
// gateway, orderer, gossip, transport servers, and peer 0's commit pipeline
// all record into it, so a submitted transaction's full timeline is visible
// here (and on the admin endpoint's /tracez view).
func (n *Network) Tracer() *trace.Recorder { return n.tracer }

// Metrics returns the network-level registry: gossip protocol counters,
// convergence lag, and transport frame/byte/latency instrumentation.
// Per-peer pipeline metrics live on each peer's own registry
// (Peer.Metrics).
func (n *Network) Metrics() *metrics.Registry { return n.netMetrics }

// Remotes returns the transport clients created by JoinRemote, in join
// order (the admin endpoint surfaces their last connection errors).
func (n *Network) Remotes() []*transport.Client { return n.remotes }

// Stop shuts down every channel's ordering service and gossip stream, the
// transport servers and clients, and all peer hosts.
func (n *Network) Stop() {
	for _, ch := range n.chOrder {
		if cr := n.channels[ch]; cr != nil && cr.gossip != nil {
			cr.gossip.Stop()
		}
	}
	for _, c := range n.remotes {
		c.Close()
	}
	for _, s := range n.servers {
		s.Close()
	}
	for _, ch := range n.chOrder {
		if cr := n.channels[ch]; cr != nil && cr.orderer != nil {
			cr.orderer.Stop()
		}
	}
	for _, ch := range n.chOrder {
		if cr := n.channels[ch]; cr != nil {
			for _, p := range cr.peers {
				p.Stop()
			}
		}
	}
}

// Peers returns the default channel's peer instances.
func (n *Network) Peers() []*peer.Peer { return n.mustChannel("").peers }

// ChannelPeers returns one channel's peer instances, in host order.
func (n *Network) ChannelPeers(ch string) ([]*peer.Peer, error) {
	cr, err := n.channel(ch)
	if err != nil {
		return nil, err
	}
	return cr.peers, nil
}

// Hosts returns the network's peer hosts, each serving every channel.
func (n *Network) Hosts() []*peer.Host { return n.hosts }

// Orderer returns the default channel's ordering service.
func (n *Network) Orderer() orderer.Service { return n.mustChannel("").orderer }

// OrdererFor returns one channel's ordering service.
func (n *Network) OrdererFor(ch string) (orderer.Service, error) {
	cr, err := n.channel(ch)
	if err != nil {
		return nil, err
	}
	return cr.orderer, nil
}

// MSP returns the network's membership service provider.
func (n *Network) MSP() *identity.MSP { return n.msp }

// CA returns the first org's certificate authority (clients enroll here by
// default).
func (n *Network) CA() *identity.CA { return n.ca }

// CAs returns every organization's certificate authority.
func (n *Network) CAs() []*identity.CA { return n.cas }

// NewGatewayFor enrolls a client identity with a specific org's CA,
// bound to the default channel.
func (n *Network) NewGatewayFor(org, clientID string) (*Gateway, error) {
	for _, ca := range n.cas {
		if ca.Org() != org {
			continue
		}
		signer, seq, err := n.enroll(ca, clientID)
		if err != nil {
			return nil, err
		}
		return n.newGateway(signer, n.clientExecutor(seq), n.chOrder[0])
	}
	return nil, fmt.Errorf("fabric: unknown org %q", org)
}

// Gateway enrolls a client identity and returns a gateway bound to one
// channel: its submits endorse on, order through, and commit-wait against
// that channel's pipeline only. An empty ch binds the default channel.
func (n *Network) Gateway(ch string) (*Gateway, error) {
	cr, err := n.channel(ch)
	if err != nil {
		return nil, err
	}
	return n.gatewayOn(cr.id, "client-"+cr.id)
}

// gatewayOn enrolls clientID on the first org's CA and binds the gateway
// to channel ch (already resolved).
func (n *Network) gatewayOn(ch, clientID string) (*Gateway, error) {
	signer, seq, err := n.enroll(n.ca, clientID)
	if err != nil {
		return nil, err
	}
	return n.newGateway(signer, n.clientExecutor(seq), ch)
}

// enroll mints a client identity on ca under a network-unique enrolment ID
// (clientID plus the network's client sequence number, which it also
// returns). Safe for concurrent use.
func (n *Network) enroll(ca *identity.CA, clientID string) (*identity.SigningIdentity, int64, error) {
	seq := n.clients.Add(1)
	signer, err := ca.Enroll(fmt.Sprintf("%s-%d", clientID, seq), identity.RoleClient)
	if err != nil {
		return nil, 0, fmt.Errorf("fabric: enroll client: %w", err)
	}
	return signer, seq, nil
}

// clientExecutor models the machine of the seq-th enrolled client: the
// client process runs on the same device class as the peers.
func (n *Network) clientExecutor(seq int64) *device.Executor {
	return device.NewExecutor(n.cfg.PeerProfiles[0], n.clock, n.cfg.Seed+seq*131)
}

// ChannelID returns the default (first) application channel name.
func (n *Network) ChannelID() string { return n.chOrder[0] }

// Channels returns the served channel IDs in configuration order.
func (n *Network) Channels() []string { return append([]string(nil), n.chOrder...) }

// Policy returns the channel's endorsement policy.
func (n *Network) Policy() endorser.Policy { return n.policy }

// DeployChaincode installs the chaincode on every peer of the default
// channel and runs its Init through the normal transaction flow so the
// instantiation is itself on the ledger.
func (n *Network) DeployChaincode(name string, mk func() shim.Chaincode) error {
	return n.DeployChaincodeOn("", name, mk)
}

// DeployChaincodeOn installs the chaincode on every peer instance of one
// channel and records its instantiation on that channel's ledger. Installs
// are channel-scoped: deploying on one channel leaves the others without
// the chaincode.
func (n *Network) DeployChaincodeOn(ch, name string, mk func() shim.Chaincode) error {
	cr, err := n.channel(ch)
	if err != nil {
		return err
	}
	for _, p := range cr.peers {
		if err := p.InstallChaincode(name, mk(), n.policy); err != nil {
			return err
		}
	}
	gw, err := n.gatewayOn(cr.id, "deployer-"+name)
	if err != nil {
		return err
	}
	if _, err := gw.Submit(name, peer.InitFunction); err != nil {
		return fmt.Errorf("fabric: instantiate %q on %q: %w", name, cr.id, err)
	}
	return nil
}

// UpgradeChaincode swaps the implementation of a deployed chaincode on
// every default-channel peer and records the upgrade on the ledger by
// re-running Init through the ordinary transaction flow.
func (n *Network) UpgradeChaincode(name string, mk func() shim.Chaincode) error {
	cr := n.mustChannel("")
	for _, p := range cr.peers {
		if err := p.UpgradeChaincode(name, mk(), n.policy); err != nil {
			return err
		}
	}
	gw, err := n.NewGateway("upgrader-" + name)
	if err != nil {
		return err
	}
	if _, err := gw.Submit(name, peer.InitFunction); err != nil {
		return fmt.Errorf("fabric: upgrade %q: %w", name, err)
	}
	return nil
}

// NewGateway enrolls a client identity and returns a Gateway bound to this
// network's default channel. The gateway endorses on every peer
// (satisfying any-org and majority policies alike) and waits for commits
// on peer 0. Channel-scoped clients use Network.Gateway(ch).
func (n *Network) NewGateway(clientID string) (*Gateway, error) {
	// The client process runs on the same device class as the peers (in
	// the paper the benchmark client runs on one of the machines).
	return n.gatewayOn(n.chOrder[0], clientID)
}

// NewGatewayOn is like NewGateway but binds the client to an existing
// device executor, so several logical clients share one physical machine —
// the shape of the paper's benchmark program, which drives many concurrent
// requests from a single node.
func (n *Network) NewGatewayOn(clientID string, exec *device.Executor) (*Gateway, error) {
	signer, _, err := n.enroll(n.ca, clientID)
	if err != nil {
		return nil, err
	}
	return n.newGateway(signer, exec, n.chOrder[0])
}

func (n *Network) newGateway(signer *identity.SigningIdentity, exec *device.Executor, ch string) (*Gateway, error) {
	return &Gateway{
		net:           n,
		channel:       ch,
		signer:        signer,
		exec:          exec,
		commitTimeout: defaultCommitTimeout(n.clock),
	}, nil
}

// Clock returns the network's modeled clock.
func (n *Network) Clock() device.Clock { return n.clock }

// defaultCommitTimeout scales the wall-clock commit timeout with the
// modeled clock so scaled benchmarks do not time out spuriously.
func defaultCommitTimeout(clock device.Clock) time.Duration {
	const modeled = 120 * time.Second
	scale := clock.Scale()
	if scale <= 0 || scale >= 1 {
		return modeled
	}
	d := time.Duration(float64(modeled) * scale)
	if d < 5*time.Second {
		d = 5 * time.Second
	}
	return d
}
