package fabric

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/transport"
)

// externalPeer builds a peer outside the network's process boundary (in
// this test, outside its member list): same trust domain, own transport
// listener — the shape of a peer served by another OS process.
func externalPeer(t *testing.T, n *Network, name string) (*peer.Peer, *transport.Server) {
	t.Helper()
	signer, err := n.CA().Enroll(name, identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	host := standaloneHost(t, n, name, signer)
	p := host.Channel(n.ChannelID())
	t.Cleanup(p.Stop)
	if err := p.InstallChaincode(provenance.ChaincodeName, provenance.New(), n.Policy()); err != nil {
		t.Fatal(err)
	}
	srv, err := transport.NewHostServer("127.0.0.1:0", host, transport.ServerConfig{
		Orgs:       []string{n.CA().Org()},
		CACertsPEM: [][]byte{n.CA().CertPEM()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return p, srv
}

// standalonePeer builds a volatile peer on the network's default channel
// and trust domain that is not one of the network's members.
func standalonePeer(t *testing.T, n *Network, name string, signer *identity.SigningIdentity) *peer.Peer {
	t.Helper()
	return standaloneHost(t, n, name, signer).Channel(n.ChannelID())
}

// standaloneHost is the single-channel host standalonePeer lives in, which
// is what a transport server exposes.
func standaloneHost(t *testing.T, n *Network, name string, signer *identity.SigningIdentity) *peer.Host {
	t.Helper()
	host, err := peer.NewHost(peer.Config{Name: name, Signer: signer, MSP: n.MSP(), Channels: []string{n.ChannelID()}})
	if err != nil {
		t.Fatal(err)
	}
	return host
}

func waitForHeight(t *testing.T, p *peer.Peer, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for p.Height() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s at height %d, want %d", p.Name(), p.Height(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJoinRemoteConvergesOverTCP: a peer reachable only through a TCP
// transport address joins the network's gossip membership and converges
// to the same height and state fingerprint.
func TestJoinRemoteConvergesOverTCP(t *testing.T) {
	cfg := testConfig()
	cfg.Gossip = true
	cfg.PeerListen = true
	n := newTestNetwork(t, cfg)
	if got := len(n.PeerAddrs()); got != len(n.Peers()) {
		t.Fatalf("PeerAddrs = %d, want %d", got, len(n.Peers()))
	}

	remote, srv := externalPeer(t, n, "remote-peer")
	member, err := n.JoinRemote(srv.Addr(), cfg.PeerLink)
	if err != nil {
		t.Fatal(err)
	}
	if member.Name() != "remote-peer" {
		t.Errorf("joined member name = %q", member.Name())
	}

	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tcp-a", "tcp-b", "tcp-c"} {
		setRecord(t, gw, key, "cs")
	}
	local := n.Peers()[0]
	waitForHeight(t, remote, local.Height())
	if remote.StateFingerprint() != local.StateFingerprint() {
		t.Error("remote peer state fingerprint diverges")
	}
	if err := remote.Ledger().VerifyChain(); err != nil {
		t.Errorf("remote chain: %v", err)
	}
}

// TestRemoteEndorserThroughGateway: the gateway asks a transport client
// exactly like a local peer, whenever the policy needs it. While the commit
// peer endorses, it settles every transaction and the remote is never asked;
// once the commit peer's endorsements fail, the remote's endorsement is the
// one each committed transaction carries.
func TestRemoteEndorserThroughGateway(t *testing.T) {
	for _, tc := range []struct {
		name       string
		failCommit bool
	}{{"commit peer endorses", false}, {"commit peer fails", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Gossip = true
			cfg.PeerProfiles = cfg.PeerProfiles[:1] // one local peer + one remote endorser
			n := newTestNetwork(t, cfg)

			remote, srv := externalPeer(t, n, "remote-endorser")
			if _, err := n.JoinRemote(srv.Addr(), cfg.PeerLink); err != nil {
				t.Fatal(err)
			}
			local := n.Peers()[0]
			waitForHeight(t, remote, local.Height()) // catch up past the deploy block

			client, err := transport.Dial(srv.Addr(), transport.ClientConfig{Channel: n.ChannelID()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { client.Close() })
			gw, err := n.NewGateway("client")
			if err != nil {
				t.Fatal(err)
			}
			gw.AddEndorser(client)
			if tc.failCommit {
				refuseOnCommitPeer(t, n)
			}

			const posts = 2
			for i := 0; i < posts; i++ {
				// Keep the remote simulating against fresh state.
				waitForHeight(t, remote, local.Height())
				remote.Sync()
				res := setRecord(t, gw, fmt.Sprintf("re-%d", i), "cs")
				env, code, err := gw.TxStatus(res.TxID)
				if err != nil || code != blockstore.TxValid || len(env.Endorsements) != 1 {
					t.Fatalf("tx %d: code %s, %v", i, code, err)
				}
				id, err := n.MSP().Deserialize(env.Endorsements[0].Endorser)
				if err != nil {
					t.Fatal(err)
				}
				if fromRemote := id.ID() == "remote-endorser"; fromRemote != tc.failCommit {
					t.Errorf("tx %d endorsed by %s", i, id.ID())
				}
			}
			want := int64(0)
			if tc.failCommit {
				want = posts
			}
			if served := remote.Metrics().Counter(metrics.EndorsementsServed).Value(); served != want {
				t.Errorf("remote endorser served %d endorsements, want %d", served, want)
			}
		})
	}
}

// TestJoinRemoteNamesItsChannel: the hello always names the joining
// channel, so a host whose only channel is named differently refuses the
// join instead of having its ledger cross-wired into this channel's gossip.
func TestJoinRemoteNamesItsChannel(t *testing.T) {
	cfg := testConfig()
	cfg.Gossip = true
	n := newTestNetwork(t, cfg)
	signer, err := n.CA().Enroll("stranger", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	host, err := peer.NewHost(peer.Config{Name: "stranger", Signer: signer, MSP: n.MSP(), Channels: []string{"elsewhere"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(host.Stop)
	srv, err := transport.NewHostServer("127.0.0.1:0", host, transport.ServerConfig{
		Orgs:       []string{n.CA().Org()},
		CACertsPEM: [][]byte{n.CA().CertPEM()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	members := n.Gossip().MemberCount()
	if _, err := n.JoinRemote(srv.Addr(), cfg.PeerLink); !errors.Is(err, transport.ErrUnknownChannel) {
		t.Fatalf("join of a host serving only %q: err=%v, want ErrUnknownChannel", "elsewhere", err)
	}
	if got := n.Gossip().MemberCount(); got != members || len(n.Remotes()) != 0 {
		t.Errorf("refused join left %d members (was %d) and %d remotes", got, members, len(n.Remotes()))
	}
}
