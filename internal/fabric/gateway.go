package fabric

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// Errors returned by the gateway.
var (
	ErrCommitTimeout = errors.New("fabric: timed out waiting for commit")
	ErrTxInvalidated = errors.New("fabric: transaction invalidated at commit")
	ErrEndorsement   = errors.New("fabric: endorsement failed")
)

// Endorser is anything that can simulate and sign a proposal: a local
// *peer.Peer, or a transport client for a peer served by another process.
// The gateway asks them interchangeably, and only those its plan needs: the
// commit peer first, everyone else when that cannot settle a transaction.
type Endorser interface {
	ProcessProposal(prop *endorser.Proposal) (*endorser.Response, error)
}

// Gateway is the network half of the Fabric Gateway for one client: it
// collects the endorsements a signed proposal needs (Endorse), then
// broadcasts the signed envelope and waits for its commit (Submit). It never
// signs: the client signs both through endorser.Transact. It still models
// the client's machine, so the client's costs are charged to its executor.
// A gateway is bound to exactly one channel, the one that minted it.
type Gateway struct {
	ch            *Channel
	signer        *identity.SigningIdentity
	exec          *device.Executor
	commitTimeout time.Duration
	// remote are extra endorsers beyond the network's local peers
	// (typically transport clients for peers in other OS processes).
	remote []Endorser

	// ewma holds the per-endorser latency estimates behind the
	// endorse_peer_latency gauges (lazily initialized; guarded by ewmaMu).
	ewmaMu sync.Mutex
	ewma   map[string]time.Duration
}

// AddEndorser attaches an additional endorser (a remote peer handle) that
// Endorse asks after the network's local peers, when it widens beyond the
// commit peer. The remote peer must belong to an organization this
// network's MSP trusts, or its endorsements will be rejected client-side.
func (g *Gateway) AddEndorser(e Endorser) { g.remote = append(g.remote, e) }

// Identity returns the identity the gateway enrolled for its client. The
// gateway hands it to the client, which signs with it; the gateway does not.
func (g *Gateway) Identity() *identity.SigningIdentity { return g.signer }

// ChannelID returns the name of the channel this gateway is bound to.
func (g *Gateway) ChannelID() string { return g.ch.id }

// commitPeer is the peer whose ledger the client takes as committed. Which
// peer answers a client request is decided in this file and nowhere else:
// commit-wait, Evaluate and Events ask the commit peer; Endorse and TxStatus
// ask it first, then the rest in channel order; AuditChain asks every peer.
func (g *Gateway) commitPeer() *peer.Peer { return g.ch.peers[0] }

// Endorse collects the endorsements of a signed proposal that its channel's
// endorsement policy needs, and returns only those. A proposal for another
// channel is refused before anything is charged or any peer is asked.
func (g *Gateway) Endorse(prop *endorser.Proposal) ([]*endorser.Response, error) {
	if prop.ChannelID != g.ch.id {
		return nil, fmt.Errorf("fabric: %w: gateway serves %q, proposal names %q", peer.ErrWrongChannel, g.ch.id, prop.ChannelID)
	}
	start := time.Now()
	g.exec.Sign() // the client's proposal signature

	// The endorsement plan: the commit peer first, then the channel's other
	// peers and any attached remote endorsers.
	endorsers := make([]Endorser, 0, len(g.ch.peers)+len(g.remote))
	for _, p := range g.ch.peers {
		endorsers = append(endorsers, p)
	}
	endorsers = append(endorsers, g.remote...)
	type result struct {
		resp *endorser.Response
		err  error
	}
	// Buffered to the plan's width so stragglers can finish and exit after
	// Endorse has already moved on — nothing blocks on an abandoned send.
	resCh := make(chan result, len(endorsers))
	ask := func(i int) {
		e := endorsers[i]
		go func() {
			t0 := time.Now()
			resp, err := e.ProcessProposal(prop)
			if err == nil {
				g.observeEndorseLatency(endorserName(e, i), time.Since(t0))
			}
			resCh <- result{resp: resp, err: err}
		}()
	}
	ask(0)

	// Collect endorsements as they arrive and stop as soon as they settle the
	// transaction. The first round asks the commit peer alone: Submit waited
	// for its commit of this client's previous write, so it never simulates
	// against a version that write replaced, and under an any-member policy
	// its endorsement settles the transaction. When the endorsers asked so
	// far cannot settle it (an error, a signature SelectEndorsements skips,
	// a policy one org cannot satisfy), the loop widens once to every other
	// endorser. Quorum and last arrival count the endorsers asked: before the
	// last arrival it takes a majority of them returning byte-identical
	// results (compared, not signatures), so one strangled peer does not set
	// the floor of a widened transaction's latency, and a peer that is
	// catching up cannot carry a stale read set alone; the last arrival takes
	// the largest consistent group, whatever its size. From the group,
	// endorser.SelectEndorsements verifies in arrival order one endorsement
	// per org, skipping any that fails, until the policy holds, and only
	// those are returned: every committing peer verifies each endorsement an
	// envelope carries. Late arrivals drain into the buffered channel and are
	// ignored. Signature checks go through the MSP's verification cache; the
	// modeled client-side verify cost is charged per actual ECDSA check
	// (onMiss).
	onMiss := func() { g.exec.Verify() }
	policy, msp := g.ch.net.policy, g.ch.net.msp
	asked := 1
	var arrived, resps []*endorser.Response
	var errs []error
	var err error
	for got := 1; resps == nil; got++ {
		r := <-resCh
		if r.err != nil {
			errs = append(errs, r.err)
		} else {
			arrived = append(arrived, r.resp)
		}
		last := got == asked
		if group := largestConsistentGroup(arrived); last || r.err == nil && len(group) > asked/2 {
			resps, err = endorser.SelectEndorsements(policy, msp, group, onMiss)
		}
		if !last || resps != nil {
			continue
		}
		if asked == len(endorsers) {
			if len(arrived) == 0 {
				err = errors.Join(errs...)
			}
			return nil, fmt.Errorf("%w: %w", ErrEndorsement, err)
		}
		g.ch.net.netMetrics.Counter(metrics.GatewayEndorseWidened).Inc()
		for ; asked < len(endorsers); asked++ {
			ask(asked)
		}
	}
	// The propose span covers the endorsement round, from the signed
	// proposal to the endorsements the envelope will carry.
	g.ch.net.tracer.Observe(prop.TxID, trace.StagePropose, "gateway", start, "")
	return resps, nil
}

// Submit broadcasts a signed envelope to ordering and blocks until it
// commits on the commit peer (or fails validation / times out). An envelope
// for another channel is refused before anything is charged or broadcast:
// neither the orderer nor the committer checks its channel.
func (g *Gateway) Submit(env blockstore.Envelope) (*blockstore.TxResult, error) {
	if env.ChannelID != g.ch.id {
		return nil, fmt.Errorf("fabric: %w: gateway serves %q, envelope names %q", peer.ErrWrongChannel, g.ch.id, env.ChannelID)
	}
	g.exec.Sign()                         // the client's envelope signature
	g.exec.Transfer(len(env.RWSet) + 768) // client -> orderer
	if err := g.ch.orderer.Submit(env); err != nil {
		return nil, fmt.Errorf("fabric: broadcast: %w", err)
	}

	// Commit-wait: the commit peer's watermark passing the transaction's
	// block, so the trace is complete by the time Submit returns. A commit
	// seen after the deadline is a timeout too, however late the timer's
	// goroutine ran.
	deadline, timeout := time.Now().Add(g.commitTimeout), make(chan struct{})
	defer time.AfterFunc(g.commitTimeout, func() { close(timeout) }).Stop()
	loc, ok := g.commitPeer().WaitTx(env.TxID, timeout)
	if !ok || time.Now().After(deadline) {
		return nil, fmt.Errorf("%w: tx %s after %v", ErrCommitTimeout, env.TxID, g.commitTimeout)
	}
	res := &blockstore.TxResult{TxID: env.TxID, BlockNum: loc.BlockNum, Code: loc.Code, Payload: env.Response}
	if loc.Code != blockstore.TxValid {
		return res, fmt.Errorf("%w: %s", ErrTxInvalidated, loc.Code)
	}
	return res, nil
}

// endorserName labels an endorser for the per-endorser latency gauges:
// local peers by name, transport clients by remote address, anything else
// by position in the endorsement plan.
func endorserName(e Endorser, i int) string {
	switch v := e.(type) {
	case interface{ Name() string }:
		return v.Name()
	case interface{ Addr() string }:
		return v.Addr()
	default:
		return fmt.Sprintf("endorser%d", i)
	}
}

// observeEndorseLatency folds one proposal round-trip into the endorser's
// EWMA (alpha 1/4) and publishes it as an endorse_peer_latency gauge in
// nanoseconds. Only endorsers asked get one: the commit peer always, the
// others once an Endorse widened (gateway_endorse_widened counts those).
// Operators read the family to spot the straggler the quorum early-return
// of a widened Endorse is hiding from transaction latency.
func (g *Gateway) observeEndorseLatency(name string, d time.Duration) {
	g.ewmaMu.Lock()
	prev, ok := g.ewma[name]
	if !ok {
		if g.ewma == nil {
			g.ewma = make(map[string]time.Duration)
		}
		prev = d
	}
	v := prev + (d-prev)/4
	g.ewma[name] = v
	g.ewmaMu.Unlock()
	//hyperprov:allow metricnames suffix is the channel's bounded endorser set, not request input
	g.ch.net.netMetrics.Gauge(metrics.EndorsePeerLatency + "_" + name).Set(int64(v))
}

// largestConsistentGroup partitions endorsements by their simulated-result
// digest and returns the biggest group (ties broken by first occurrence).
func largestConsistentGroup(resps []*endorser.Response) []*endorser.Response {
	if len(resps) <= 1 {
		return resps
	}
	groups := make(map[[sha256.Size]byte][]*endorser.Response)
	order := make([][sha256.Size]byte, 0, len(resps))
	for _, r := range resps {
		key := r.Digest()
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], r)
	}
	best := groups[order[0]]
	for _, key := range order[1:] {
		if len(groups[key]) > len(best) {
			best = groups[key]
		}
	}
	return best
}

// Evaluate runs a read-only query against a single peer of the gateway's
// channel (round-robin would be a refinement; the commit peer matches the
// paper's client behaviour).
func (g *Gateway) Evaluate(chaincode, fn string, args ...[]byte) ([]byte, error) {
	resp, err := g.commitPeer().Query(chaincode, fn, args, g.signer.Serialize())
	if err != nil {
		return nil, err
	}
	if resp.Status != shim.OK {
		return nil, fmt.Errorf("fabric: evaluate %s.%s: %s", chaincode, fn, resp.Message)
	}
	return resp.Payload, nil
}

// TxStatus looks a transaction up below the chaincode layer, on the ledgers
// of the gateway's own channel: envelope and validation code from the first
// peer that holds it, blockstore.ErrTxNotFound when none does.
func (g *Gateway) TxStatus(txID string) (*blockstore.Envelope, blockstore.ValidationCode, error) {
	for _, p := range g.ch.peers {
		if env, code, err := p.Ledger().GetTx(txID); err == nil {
			return env, code, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: %q", blockstore.ErrTxNotFound, txID)
}

// AuditChain verifies the hash chain of every peer's copy of the channel
// ledger and names the first peer whose copy fails.
func (g *Gateway) AuditChain() error {
	for _, p := range g.ch.peers {
		if err := p.Ledger().VerifyChain(); err != nil {
			return fmt.Errorf("%s: %w", p.Name(), err)
		}
	}
	return nil
}

// Events streams the chaincode events of transactions that commit as valid
// on the commit peer, from now until cancel (idempotent) or the peer stops.
func (g *Gateway) Events() (events <-chan blockstore.ChaincodeEvent, cancel func()) {
	return g.commitPeer().SubscribeEvents()
}

// MeteredStore wraps an off-chain store in the client machine's payload
// costs, charged to this gateway's executor: the checksum on the CPU and the
// SSHFS transfer to or from the storage node, the two terms that dominate
// the large-payload points of Figs 1–2. A caller modelling a client machine
// hands it to core.WithStore; a store behind a shaped link is left bare.
func (g *Gateway) MeteredStore(s offchain.Store) offchain.Store {
	return meteredStore{Store: s, exec: g.exec}
}

type meteredStore struct {
	offchain.Store
	exec *device.Executor
}

func (m meteredStore) Put(data []byte) (string, error) {
	m.exec.Hash(len(data))
	m.exec.StoreTransfer(len(data))
	return m.Store.Put(data)
}

func (m meteredStore) Get(ref string) ([]byte, error) {
	data, err := m.Store.Get(ref)
	if err != nil {
		return nil, err
	}
	m.exec.StoreTransfer(len(data))
	m.exec.Hash(len(data))
	return data, nil
}
