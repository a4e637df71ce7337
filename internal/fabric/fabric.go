// Package fabric assembles a complete permissioned-blockchain network —
// CAs, peers, an ordering service, and channel configuration — and exposes
// a Gateway client that drives the execute–order–validate flow end to end.
// It is the stand-in for the Hyperledger Fabric deployment (peers and
// orderer in Docker containers) that HyperProv runs on.
package fabric

import (
	"cmp"
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
	// Batch is every channel orderer's block-cutting configuration.
	Batch orderer.BatchConfig
	// Consensus selects solo (default, as in the paper) or a raftNodes-node
	// raft cluster.
	Consensus ConsensusType
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

// raftNodes sizes a raft ordering service: three nodes survive the loss of
// any one.
const raftNodes = 3

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

// Channel is the handle to one application channel of a network: its
// ordering instance, the per-host peer instances committing on it, and its
// gossip stream. Channels never share any of these, which is why their
// pipelines never contend. Every channel-scoped operation — deploying
// chaincode, minting a gateway, joining a remote peer — is a method here;
// Network promotes its first channel's, so a single-channel deployment
// never names one.
type Channel struct {
	net     *Network
	id      string
	orderer orderer.Service
	peers   []*peer.Peer
	gossip  *gossip.Network
}

// firstChannel is the name Network embeds its first channel under, keeping
// the method name Network.Channel free for the lookup.
type firstChannel = Channel

// Network is an assembled, running network: N peer hosts, each serving
// every configured channel, with one orderer instance and one gossip stream
// per channel. It embeds its first channel — the paper's single channel —
// so n.Peers(), n.NewGateway(id) and the rest of the Channel methods act on
// that one; Channel and Channels reach the others.
type Network struct {
	*firstChannel
	cfg        Config
	cas        []*identity.CA
	ca         *identity.CA // CA of the first org; used for client enrollment
	msp        *identity.MSP
	channels   []*Channel
	servers    []*transport.Server
	remotes    []*transport.Client
	clock      device.Clock
	policy     endorser.Policy
	clients    atomic.Int64
	tracer     *trace.Recorder
	netMetrics *metrics.Registry
}

// NewNetwork assembles and starts a network: it enrolls peer and orderer
// identities, builds one orderer instance and one per-host peer instance
// per channel, starts every instance pulling its channel's ordered chain,
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
	// An unconfigured channel list means the paper's single channel.
	channels := cfg.Channels
	if len(channels) == 0 {
		channels = []ChannelConfig{{ID: defaultChannel}}
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
		clock:      cfg.Clock,
		policy:     policy,
		tracer:     trace.NewRecorder(),
		netMetrics: metrics.NewRegistry(),
	}

	// One modeled ordering machine serves every channel (the usual Fabric
	// deployment co-locates the ordering service), but each channel gets
	// its own ordering instance: independent batch cutters and block chains.
	ordExec := device.NewExecutor(cfg.OrdererProfile, cfg.Clock, cfg.Seed+1000)
	chIDs := make([]string, len(channels))
	for i, chc := range channels {
		if _, err := n.Channel(chc.ID); err == nil {
			n.Stop()
			return nil, fmt.Errorf("fabric: duplicate channel %q", chc.ID)
		}
		batch := cfg.Batch
		// The batch timer runs in wall time; when the modeled clock is
		// scaled, scale the timeout (<= 0 meaning the default) identically.
		if scale := cfg.Clock.Scale(); scale > 0 {
			timeout := cmp.Or(max(batch.BatchTimeout, 0), orderer.DefaultBatchConfig().BatchTimeout)
			batch.BatchTimeout = time.Duration(float64(timeout) * scale)
		}
		var svc orderer.Service
		switch cfg.Consensus {
		case ConsensusRaft:
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
		chIDs[i] = chc.ID
		n.channels = append(n.channels, &Channel{net: n, id: chc.ID, orderer: svc})
	}
	n.firstChannel = n.channels[0]

	hosts := make([]*peer.Host, len(cfg.PeerProfiles))
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
		for _, c := range n.channels {
			inst := host.Channel(c.id)
			inst.Start(c.orderer)
			c.peers = append(c.peers, inst)
		}
		hosts[i] = host
	}
	if cfg.Gossip {
		for _, c := range n.channels {
			members := make([]gossip.Member, len(c.peers))
			for i, p := range c.peers {
				members[i] = p
			}
			gcfg := gossip.DefaultConfig()
			gcfg.Seed = cfg.Seed
			c.gossip = gossip.New(gcfg, members...)
			c.gossip.SetMetrics(n.netMetrics)
			c.gossip.SetTracer(n.tracer)
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
		for i, host := range hosts {
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

// Channel returns the handle of one served channel.
func (n *Network) Channel(id string) (*Channel, error) {
	for _, c := range n.channels {
		if c.id == id {
			return c, nil
		}
	}
	served := make([]string, len(n.channels))
	for i, c := range n.channels {
		served[i] = c.id
	}
	return nil, fmt.Errorf("fabric: unknown channel %q (serving %v)", id, served)
}

// Channels returns the served channels in configuration order.
func (n *Network) Channels() []*Channel { return append([]*Channel(nil), n.channels...) }

// PeerAddrs returns the listen addresses of the exposed peers, in peer
// order (empty unless PeerListen was set).
func (n *Network) PeerAddrs() []string {
	addrs := make([]string, len(n.servers))
	for i, s := range n.servers {
		addrs[i] = s.Addr()
	}
	return addrs
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
	for _, c := range n.channels {
		if c.gossip != nil {
			c.gossip.Stop()
		}
	}
	for _, c := range n.remotes {
		c.Close()
	}
	for _, s := range n.servers {
		s.Close()
	}
	for _, c := range n.channels {
		c.orderer.Stop()
	}
	for _, c := range n.channels {
		for _, p := range c.peers {
			p.Stop()
		}
	}
}

// MSP returns the network's membership service provider.
func (n *Network) MSP() *identity.MSP { return n.msp }

// CA returns the first org's certificate authority (clients enroll here by
// default).
func (n *Network) CA() *identity.CA { return n.ca }

// CAs returns every organization's certificate authority.
func (n *Network) CAs() []*identity.CA { return n.cas }

// Policy returns the endorsement policy every channel shares.
func (n *Network) Policy() endorser.Policy { return n.policy }

// ChannelID returns the channel's name.
func (c *Channel) ChannelID() string { return c.id }

// Peers returns the channel's peer instances, in host order.
func (c *Channel) Peers() []*peer.Peer { return c.peers }

// Orderer returns the channel's ordering service.
func (c *Channel) Orderer() orderer.Service { return c.orderer }

// Gossip returns the channel's gossip network, or nil when disabled.
func (c *Channel) Gossip() *gossip.Network { return c.gossip }

// JoinRemote dials this channel on a host served by another process and
// joins it to the channel's gossip membership: local peers pull the
// remote's blocks and push it theirs over TCP, with shape applied to this
// side's writes. The hello names the channel, so the dial fails with
// transport.ErrUnknownChannel when the remote host does not serve it. The
// network must have been created with Gossip enabled.
func (c *Channel) JoinRemote(addr string, shape network.LinkShape) (*transport.Member, error) {
	if c.gossip == nil {
		return nil, errors.New("fabric: gossip not enabled")
	}
	client, err := transport.Dial(addr, transport.ClientConfig{
		Channel: c.id,
		Shape:   shape,
		Metrics: c.net.netMetrics,
		Tracer:  c.net.tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("fabric: join %s: %w", addr, err)
	}
	member := client.Member()
	c.net.remotes = append(c.net.remotes, client)
	c.gossip.Add(member)
	return member, nil
}

// AddGossipPeer adds a peer to the channel that does NOT pull from the
// ordering service: it receives blocks exclusively through gossip
// anti-entropy, modelling an edge node without connectivity to the orderer.
// The network must have been created with Gossip enabled. The new peer has
// the full chaincode set installed.
func (c *Channel) AddGossipPeer(prof device.Profile, ccs map[string]shim.Chaincode) (*peer.Peer, error) {
	if c.gossip == nil {
		return nil, errors.New("fabric: gossip not enabled")
	}
	n := c.net
	name := fmt.Sprintf("peer%d.%s", len(c.peers), n.ca.Org())
	signer, err := n.ca.Enroll(name, identity.RolePeer)
	if err != nil {
		return nil, fmt.Errorf("fabric: enroll %s: %w", name, err)
	}
	host, err := peer.NewHost(peer.Config{
		Name:     name,
		Signer:   signer,
		MSP:      n.msp,
		Executor: device.NewExecutor(prof, n.clock, n.cfg.Seed+int64(len(c.peers))*17),
		Channels: []string{c.id},
	})
	if err != nil {
		return nil, fmt.Errorf("fabric: host %s: %w", name, err)
	}
	p := host.Channel(c.id)
	for ccName, cc := range ccs {
		if err := p.InstallChaincode(ccName, cc, n.policy); err != nil {
			return nil, err
		}
	}
	c.peers = append(c.peers, p)
	c.gossip.Add(p)
	return p, nil
}

// DeployChaincode installs the chaincode on every peer instance of the
// channel and runs its Init through the normal transaction flow so the
// instantiation is itself on the channel's ledger. Installs are
// channel-scoped: deploying on one channel leaves the others without the
// chaincode.
func (c *Channel) DeployChaincode(name string, mk func() shim.Chaincode) error {
	for _, p := range c.peers {
		if err := p.InstallChaincode(name, mk(), c.net.policy); err != nil {
			return err
		}
	}
	return c.runInit("instantiate", name)
}

// UpgradeChaincode swaps the implementation of a deployed chaincode on
// every peer of the channel and records the upgrade on its ledger by
// re-running Init through the ordinary transaction flow.
func (c *Channel) UpgradeChaincode(name string, mk func() shim.Chaincode) error {
	for _, p := range c.peers {
		if err := p.UpgradeChaincode(name, mk(), c.net.policy); err != nil {
			return err
		}
	}
	return c.runInit("upgrade", name)
}

// runInit submits the chaincode's Init on behalf of a lifecycle operation
// (op names it in the client identity and in the error).
func (c *Channel) runInit(op, name string) error {
	gw, err := c.NewGateway(op + "-" + name)
	if err != nil {
		return err
	}
	if _, err := gw.Submit(name, peer.InitFunction); err != nil {
		return fmt.Errorf("fabric: %s %q on %q: %w", op, name, c.id, err)
	}
	return nil
}

// NewGateway enrolls a client identity on the first org's CA and returns a
// Gateway bound to this channel: it endorses on its peer 0, widening to
// every peer of the channel when the policy needs more (a majority of orgs),
// orders through the channel's orderer and waits for commits on its peer 0.
// The client runs on a machine of its own, of the same device class as the
// peers (in the paper the benchmark client runs on one of the machines).
func (c *Channel) NewGateway(clientID string) (*Gateway, error) {
	return c.newGateway(c.net.ca, clientID, nil)
}

// NewGatewayOn is like NewGateway but binds the client to an existing
// device executor, so several logical clients share one physical machine —
// the shape of the paper's benchmark program, which drives many concurrent
// requests from a single node.
func (c *Channel) NewGatewayOn(clientID string, exec *device.Executor) (*Gateway, error) {
	return c.newGateway(c.net.ca, clientID, exec)
}

// NewGatewayFor is NewGateway with the client enrolled on a specific org's
// CA.
func (c *Channel) NewGatewayFor(org, clientID string) (*Gateway, error) {
	for _, ca := range c.net.cas {
		if ca.Org() == org {
			return c.newGateway(ca, clientID, nil)
		}
	}
	return nil, fmt.Errorf("fabric: unknown org %q", org)
}

// newGateway mints a client identity on ca under a network-unique enrolment
// ID (clientID plus the network's client sequence number) and binds it to
// the channel. A nil exec models the machine of that sequence number. Safe
// for concurrent use.
func (c *Channel) newGateway(ca *identity.CA, clientID string, exec *device.Executor) (*Gateway, error) {
	n := c.net
	seq := n.clients.Add(1)
	signer, err := ca.Enroll(fmt.Sprintf("%s-%d", clientID, seq), identity.RoleClient)
	if err != nil {
		return nil, fmt.Errorf("fabric: enroll client: %w", err)
	}
	if exec == nil {
		exec = device.NewExecutor(n.cfg.PeerProfiles[0], n.clock, n.cfg.Seed+seq*131)
	}
	return &Gateway{
		ch:            c,
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
