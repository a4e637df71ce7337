// Package gossip implements pull-based anti-entropy block dissemination
// between peers: each member periodically asks a random neighbour for
// blocks beyond its own height and commits what it receives. In the paper's
// edge setting (and in Vegvisir, which it cites) this is what lets a peer
// that lost connectivity to the ordering service catch up from its
// neighbours once the partition heals, without relying on constant
// connectivity to the cloud.
package gossip

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// Member is the peer surface gossip needs: report height, stream blocks,
// and accept blocks.
type Member interface {
	// Name identifies the member.
	Name() string
	// Height returns the member's committed block height.
	Height() uint64
	// Blocks hands fn the member's committed blocks numbered from up to its
	// height, one at a time and in order, and stops at fn's first error.
	// Blocks fn already had are an in-order prefix, safe to commit.
	Blocks(from uint64, fn func(*blockstore.Block) error) error
	// DeliverBlock hands the member a block fetched from a neighbour; the
	// member validates and commits it exactly like an ordered block.
	// Delivery may be asynchronous (a pipelined committer).
	DeliverBlock(b *blockstore.Block)
	// Sync waits until every delivered block is committed. Gossip calls it
	// once after delivering a whole pulled batch, so a long catch-up feeds
	// the pipeline back-to-back instead of draining it per block.
	Sync()
}

// Config tunes the gossip protocol.
type Config struct {
	// Interval is the anti-entropy round period.
	Interval time.Duration
	// Seed fixes neighbour selection.
	Seed int64
}

// DefaultConfig returns gossip settings suitable for LAN deployments.
func DefaultConfig() Config {
	return Config{Interval: 50 * time.Millisecond}
}

// Network runs anti-entropy rounds among a fixed membership with
// injectable link failures.
type Network struct {
	cfg     Config
	members []Member

	mu       sync.RWMutex
	rng      *rand.Rand
	blocked  map[string]map[string]bool // from -> to -> blocked
	isolated map[string]bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// metrics and tracer are attached after construction (the anti-entropy
	// loop is already running by then), hence atomic pointers rather than
	// plain fields.
	metrics atomic.Pointer[metrics.Registry]
	tracer  atomic.Pointer[trace.Recorder]
}

// New creates a gossip network over the given members and starts its
// anti-entropy loop.
func New(cfg Config, members ...Member) *Network {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultConfig().Interval
	}
	g := &Network{
		cfg:      cfg,
		members:  members,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		blocked:  make(map[string]map[string]bool),
		isolated: make(map[string]bool),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go g.loop()
	return g
}

// SetMetrics attaches a registry receiving gossip protocol counters
// (rounds, pull deliveries, blocks pulled) and the convergence-lag
// histogram. Safe to call while the loop runs.
func (g *Network) SetMetrics(reg *metrics.Registry) { g.metrics.Store(reg) }

// SetTracer attaches a trace recorder: each pulled block's transactions
// gain a gossip.deliver span naming the pulling member. Safe to call while
// the loop runs.
func (g *Network) SetTracer(t *trace.Recorder) { g.tracer.Store(t) }

// MemberCount returns the current gossip membership size (the /healthz
// peer count).
func (g *Network) MemberCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.members)
}

// Stop terminates the anti-entropy loop.
func (g *Network) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	<-g.done
}

// Add joins a new member to the gossip membership; it will catch up from
// its neighbours on the next rounds.
func (g *Network) Add(m Member) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members = append(g.members, m)
}

// Isolate cuts a member off from all gossip traffic (both directions).
func (g *Network) Isolate(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.isolated[name] = true
}

// Heal restores a member's gossip connectivity.
func (g *Network) Heal(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.isolated, name)
}

// Block cuts the directed gossip link from -> to: "from" can no longer
// pull from "to". Use a pair of Block calls for a symmetric partition.
func (g *Network) Block(from, to string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.blocked[from] == nil {
		g.blocked[from] = make(map[string]bool)
	}
	g.blocked[from][to] = true
}

// Unblock restores the directed gossip link from -> to.
func (g *Network) Unblock(from, to string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.blocked[from], to)
	if len(g.blocked[from]) == 0 {
		delete(g.blocked, from)
	}
}

// linkOK reports whether a can currently pull from b.
func (g *Network) linkOK(a, b string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.isolated[a] || g.isolated[b] {
		return false
	}
	return !g.blocked[a][b]
}

func (g *Network) loop() {
	defer close(g.done)
	ticker := time.NewTicker(g.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			g.round()
		}
	}
}

// round runs one anti-entropy exchange: every member pulls missing blocks
// from one random neighbour.
func (g *Network) round() {
	if reg := g.metrics.Load(); reg != nil {
		reg.Counter(metrics.GossipRounds).Inc()
	}
	members := g.membersSnapshot()
	for _, m := range members {
		if peer := g.pickNeighbour(m, members); peer != nil {
			g.pull(m, peer)
		}
	}
}

func (g *Network) membersSnapshot() []Member {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Member, len(g.members))
	copy(out, g.members)
	return out
}

// pickNeighbour draws uniformly from the n-1 members that are not m: the
// RNG picks an index into the candidate set with self removed, so no
// neighbour's pull probability depends on its position relative to m.
func (g *Network) pickNeighbour(m Member, members []Member) Member {
	if len(members) < 2 {
		return nil
	}
	self := -1
	for i, c := range members {
		if c.Name() == m.Name() {
			self = i
			break
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if self < 0 {
		return members[g.rng.Intn(len(members))]
	}
	idx := g.rng.Intn(len(members) - 1)
	if idx >= self {
		idx++
	}
	return members[idx]
}

// pull fetches blocks the puller is missing from the source, in order, and
// delivers each as the source hands it over: the tail is never held, and
// DeliverBlock's bounded commit queues bound the blocks in flight. A failed
// stream keeps the prefix it delivered; the next round fetches the rest.
// The puller is synced once per pull, so a pipelined committer overlaps
// validation and persistence across the tail instead of being drained once
// per block.
func (g *Network) pull(puller, source Member) {
	if !g.linkOK(puller.Name(), source.Name()) {
		return
	}
	have := puller.Height()
	srcH := source.Height()
	if srcH <= have {
		return
	}
	tracer := g.tracer.Load()
	var pulled int64
	// A failed stream is no progress past the prefix already delivered;
	// anti-entropy's next round is the retry.
	_ = source.Blocks(have, func(b *blockstore.Block) error {
		start := time.Now()
		puller.DeliverBlock(b)
		if tracer != nil {
			tracer.AddBatch(b.TxIDs(), trace.StageGossipDeliver, puller.Name(), start, time.Since(start))
		}
		pulled++
		return nil
	})
	if pulled == 0 {
		return
	}
	puller.Sync()
	if reg := g.metrics.Load(); reg != nil {
		reg.Counter(metrics.GossipPullDeliveries).Inc()
		reg.Counter(metrics.GossipBlocksPulled).Add(pulled)
		// Convergence lag: how many blocks behind the source this puller was
		// when the pull started (1 block == 1ns in the histogram's slots).
		reg.Histogram(metrics.GossipConvergenceLag).Observe(time.Duration(srcH - have))
	}
}

// Converged reports whether all non-isolated members are at the same
// height.
func (g *Network) Converged() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var h uint64
	first := true
	for _, m := range g.members {
		if g.isolated[m.Name()] {
			continue
		}
		if first {
			h = m.Height()
			first = false
			continue
		}
		if m.Height() != h {
			return false
		}
	}
	return true
}
