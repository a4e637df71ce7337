package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/transport"
)

const (
	// catchupBlockTxs is the paper's Fabric default batch size.
	catchupBlockTxs = 10
	// catchupWindow is the number of blocks one operation delivers before
	// it syncs: a fixed-size pulled batch, as gossip hands a remote member.
	catchupWindow = 4
	channelID     = "provchannel"
	// catchupSubmitters builds the source chain; see populate.
	catchupSubmitters = 2 * catchupBlockTxs
)

// joiner is a volatile peer in its own trust domain, reached only over a
// loopback transport connection — what a process joining from another
// machine looks like to the network.
type joiner struct {
	host   *peer.Host
	peer   *peer.Peer
	server *transport.Server
	client *transport.Client
	msp    *identity.MSP
	wire   *metrics.Registry
}

// edgeSigner enrolls a throwaway identity under a CA of its own: a joining
// peer never endorses for the network, it only validates and commits.
func edgeSigner(name string) (*identity.SigningIdentity, error) {
	ca, err := identity.NewCA("Edge-" + name)
	if err != nil {
		return nil, err
	}
	return ca.Enroll(name, identity.RolePeer)
}

// newJoiner builds a joiner that trusts the network through caPEM only: a
// verification-only CA, a fresh MSP and therefore a cold VerifyCache, so
// every signature on the delivered chain costs a real ECDSA verification.
func newJoiner(name string, caPEM []byte, policy endorser.Policy) (*joiner, error) {
	ca, err := identity.NewVerifyingCA(caPEM)
	if err != nil {
		return nil, err
	}
	signer, err := edgeSigner(name)
	if err != nil {
		return nil, err
	}
	msp := identity.NewMSP(ca)
	host, err := peer.NewHost(peer.Config{
		Name:     name,
		Signer:   signer,
		MSP:      msp,
		Channels: []string{channelID},
	})
	if err != nil {
		return nil, err
	}
	j := &joiner{host: host, peer: host.Channel(channelID), msp: msp, wire: metrics.NewRegistry()}
	if err := j.peer.InstallChaincode(provenance.ChaincodeName, provenance.New(), policy); err != nil {
		j.close()
		return nil, err
	}
	j.server, err = transport.NewHostServer("127.0.0.1:0", host, transport.ServerConfig{
		Orgs:       []string{ca.Org()},
		CACertsPEM: [][]byte{caPEM},
		Metrics:    j.wire,
	})
	if err != nil {
		j.close()
		return nil, err
	}
	j.client, err = transport.Dial(j.server.Addr(), transport.ClientConfig{Channel: channelID})
	if err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

// deliver pushes blocks over the wire and waits for the joiner to persist
// them, returning its height.
func (j *joiner) deliver(blocks []*blockstore.Block, sl *spanLog) (uint64, error) {
	for _, b := range blocks {
		if err := sl.call("transport.Deliver", func() error { return j.client.Deliver(b) }); err != nil {
			return 0, err
		}
	}
	var height uint64
	err := sl.call("transport.SyncRemote", func() (err error) {
		height, err = j.client.SyncRemote()
		return err
	})
	return height, err
}

func (j *joiner) close() {
	if j.client != nil {
		j.client.Close()
	}
	if j.server != nil {
		j.server.Close()
	}
	j.host.Stop()
}

// catchupWorkload is catchup: each client drives its own cold joiner through
// a pre-built chain of ten-transaction blocks, catchupWindow blocks per
// operation. Committer, identity, block codec and transport framing do all
// the work; gateway, endorsement, orderer and off-chain do none. The joiner
// is volatile and the operation has no timer on its path.
type catchupWorkload struct {
	src    *chainNet
	client *core.Client
	blocks []*blockstore.Block
	srcFP  string
	caPEM  []byte
	ops    int

	joiners []*joiner
	// cache accumulates the discarded joiners' verification-cache counters.
	cache identity.VerifyCacheStats
}

func newCatchupWorkload(seed int64, sz sizing) (workload, error) {
	// BatchTimeout only ever cuts block 0 (the lone instantiation): the
	// submitters below always have a full batch on the way.
	src, err := newChainNet(1, catchupBlockTxs, 500*time.Millisecond, catchupSubmitters)
	if err != nil {
		return nil, err
	}
	w := &catchupWorkload{src: src, ops: sz.ops, caPEM: src.net.CA().CertPEM()}
	if w.client, err = core.New(src.gateways[0]); err != nil {
		src.stop()
		return nil, err
	}
	// The chain is exactly what one client replays in a measured round;
	// the warm-up replays a prefix.
	if sz.warmup > sz.ops {
		src.stop()
		return nil, fmt.Errorf("warm-up of %d operations exceeds the round's %d", sz.warmup, sz.ops)
	}
	perClient := sz.ops / numClients
	if err := w.populate(gen{seed}, perClient*catchupWindow*catchupBlockTxs); err != nil {
		src.stop()
		return nil, fmt.Errorf("populate source chain: %w", err)
	}
	if err := src.settle(); err != nil {
		src.stop()
		return nil, err
	}
	w.blocks = src.net.Peers()[0].BlocksFrom(0)
	w.srcFP = src.net.Peers()[0].StateFingerprint()
	if want := 1 + perClient*catchupWindow; len(w.blocks) != want {
		src.stop()
		return nil, fmt.Errorf("source chain has %d blocks, want %d", len(w.blocks), want)
	}
	return w, nil
}

// populate commits txs Posts (a multiple of catchupBlockTxs) from
// catchupSubmitters closed-loop submitters, twice a block's worth: while one
// block's ten wait for their commit the other ten fill the next, so the
// orderer cuts every block on MaxMessageCount and each holds exactly ten.
// Finish asserts it.
func (w *catchupWorkload) populate(g gen, txs int) error {
	var next atomic.Int64
	errs := make([]error, catchupSubmitters)
	var wg sync.WaitGroup
	for s := 0; s < catchupSubmitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cl, err := core.New(w.src.gateways[s])
			if err != nil {
				errs[s] = err
				return
			}
			for {
				n := int(next.Add(1)) - 1
				if n >= txs {
					return
				}
				if _, err := cl.Post(g.key("c", 0, n), g.checksum(0, n), core.PostOptions{}); err != nil {
					errs[s] = fmt.Errorf("tx %d: %w", n, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// BeginRound builds one fresh joiner per client and hands it block 0, the
// chaincode instantiation, outside the timed region.
func (w *catchupWorkload) BeginRound(r int) error {
	for c := 0; c < numClients; c++ {
		j, err := newJoiner(fmt.Sprintf("joiner%d", c), w.caPEM, w.src.net.Policy())
		if err != nil {
			return err
		}
		w.joiners = append(w.joiners, j)
		if h, err := j.deliver(w.blocks[:1], nil); err != nil || h != 1 {
			return fmt.Errorf("deliver instantiation block: height %d, %v", h, err)
		}
	}
	return nil
}

func (w *catchupWorkload) Op(c, r, i int, sl *spanLog) error {
	sl.beginOp("op.catchup_window", i)
	defer sl.endOp()
	from := 1 + (i/numClients)*catchupWindow
	height, err := w.joiners[c].deliver(w.blocks[from:from+catchupWindow], sl)
	if err != nil {
		return err
	}
	if want := uint64(from + catchupWindow); height != want {
		return fmt.Errorf("joiner %d at height %d after window, want %d", c, height, want)
	}
	return nil
}

func (w *catchupWorkload) Quiesce(int) error { return nil }

// EndRound asserts that every joiner that replayed the whole chain reached
// the source's state fingerprint, then discards the joiners.
func (w *catchupWorkload) EndRound(r int) error {
	defer w.dropJoiners()
	for c, j := range w.joiners {
		if int(j.peer.Height()) != len(w.blocks) {
			if r < 0 {
				continue // the warm-up replays a prefix only
			}
			return fmt.Errorf("joiner %d ended at height %d of %d", c, j.peer.Height(), len(w.blocks))
		}
		if fp := j.peer.StateFingerprint(); fp != w.srcFP {
			return fmt.Errorf("joiner %d state fingerprint differs from the source's", c)
		}
		if err := j.peer.Ledger().VerifyChain(); err != nil {
			return fmt.Errorf("joiner %d: %w", c, err)
		}
	}
	return nil
}

func (w *catchupWorkload) dropJoiners() {
	for _, j := range w.joiners {
		st := j.msp.VerifyCache().Stats()
		w.cache.Hits += st.Hits
		w.cache.Misses += st.Misses
		j.close()
	}
	w.joiners = nil
}

func (w *catchupWorkload) Finish() (ledgerFacts, error) {
	return w.src.verify(w.client, catchupBlockTxs)
}

func (w *catchupWorkload) Close() {
	w.dropJoiners()
	w.src.stop()
}

func (w *catchupWorkload) Net() *chainNet { return w.src }

func (w *catchupWorkload) CacheStats() identity.VerifyCacheStats { return w.cache }
