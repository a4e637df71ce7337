package gossip

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
)

// fakeMember is an in-memory Member for protocol-level tests.
type fakeMember struct {
	name string
	mu   sync.Mutex
	sto  *blockstore.Store
}

func newFakeMember(name string) *fakeMember {
	return &fakeMember{name: name, sto: blockstore.NewStore()}
}

func (m *fakeMember) Name() string { return m.name }

func (m *fakeMember) Height() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sto.Height()
}

func (m *fakeMember) Blocks(from uint64, fn func(*blockstore.Block) error) error {
	return blockstore.Each(m.sto, from, fn)
}

func (m *fakeMember) DeliverBlock(b *blockstore.Block) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.Header.Number != m.sto.Height() {
		return
	}
	_ = m.sto.Append(b)
}

// Sync is a no-op: DeliverBlock commits synchronously.
func (m *fakeMember) Sync() {}

// appendBlocks extends a member's chain by n blocks.
func appendBlocks(t *testing.T, m *fakeMember, n int) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < n; i++ {
		num := m.sto.Height()
		b := blockstore.NewBlock(num, m.sto.LastHash(),
			[]blockstore.Envelope{{TxID: fmt.Sprintf("%s-tx-%d", m.name, num)}})
		if err := m.sto.Append(b); err != nil {
			t.Fatal(err)
		}
	}
}

func waitConverged(t *testing.T, g *Network, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if g.Converged() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("gossip did not converge")
}

func TestAntiEntropyCatchUp(t *testing.T) {
	a, b, c := newFakeMember("a"), newFakeMember("b"), newFakeMember("c")
	appendBlocks(t, a, 5) // a is ahead; b and c are empty
	g := New(Config{Interval: 5 * time.Millisecond, Seed: 1}, a, b, c)
	defer g.Stop()
	waitConverged(t, g, 5*time.Second)
	if b.Height() != 5 || c.Height() != 5 {
		t.Errorf("heights after convergence: b=%d c=%d", b.Height(), c.Height())
	}
	if err := b.sto.VerifyChain(); err != nil {
		t.Errorf("b chain: %v", err)
	}
}

func TestIsolationBlocksGossipThenHeals(t *testing.T) {
	a, b := newFakeMember("a"), newFakeMember("b")
	g := New(Config{Interval: 5 * time.Millisecond, Seed: 2}, a, b)
	defer g.Stop()

	g.Isolate("b")
	appendBlocks(t, a, 3)
	time.Sleep(60 * time.Millisecond)
	if b.Height() != 0 {
		t.Fatalf("isolated member received blocks: height %d", b.Height())
	}
	g.Heal("b")
	waitConverged(t, g, 5*time.Second)
	if b.Height() != 3 {
		t.Errorf("healed member height = %d, want 3", b.Height())
	}
}

func TestBidirectionalConvergence(t *testing.T) {
	// Two members each ahead on disjoint chains cannot merge (different
	// chains), but a fresh member must catch up from whichever it pulls.
	a, b := newFakeMember("a"), newFakeMember("b")
	appendBlocks(t, a, 4)
	g := New(Config{Interval: 5 * time.Millisecond, Seed: 3}, a, b)
	defer g.Stop()
	waitConverged(t, g, 5*time.Second)
	if b.Height() != 4 {
		t.Errorf("b height = %d", b.Height())
	}
	// New blocks keep flowing.
	appendBlocks(t, a, 2)
	waitConverged(t, g, 5*time.Second)
	if b.Height() != 6 {
		t.Errorf("b height after more blocks = %d", b.Height())
	}
}

func TestSingleMemberNoop(t *testing.T) {
	a := newFakeMember("a")
	g := New(Config{Interval: 5 * time.Millisecond}, a)
	defer g.Stop()
	time.Sleep(20 * time.Millisecond)
	if !g.Converged() {
		t.Error("single member not converged")
	}
}

func TestStopIdempotent(t *testing.T) {
	g := New(DefaultConfig(), newFakeMember("a"), newFakeMember("b"))
	g.Stop()
	g.Stop()
}

// TestPickNeighbourUniform pins the selection fix: with self excluded from
// the draw, every other member must be picked with equal probability. The
// old next-member fallback gave the member after self double weight.
func TestPickNeighbourUniform(t *testing.T) {
	a, b, c := newFakeMember("a"), newFakeMember("b"), newFakeMember("c")
	g := New(Config{Interval: time.Hour, Seed: 42}, a, b, c)
	defer g.Stop()
	members := []Member{a, b, c}
	const draws = 6000
	counts := make(map[string]int)
	for i := 0; i < draws; i++ {
		peer := g.pickNeighbour(a, members)
		if peer == nil {
			t.Fatal("nil neighbour with 3 members")
		}
		if peer.Name() == "a" {
			t.Fatal("picked self")
		}
		counts[peer.Name()]++
	}
	// Fair draws put each of b and c near draws/2; the old bias put the
	// member after self near 2*draws/3. 10% tolerance is > 12 sigma.
	lo, hi := draws/2-draws/10, draws/2+draws/10
	for _, name := range []string{"b", "c"} {
		if counts[name] < lo || counts[name] > hi {
			t.Errorf("%s picked %d times of %d, want ~%d", name, counts[name], draws, draws/2)
		}
	}
}

// syncCountingMember wraps a fake member and counts Sync calls, verifying
// the once-per-pulled-batch contract.
type syncCountingMember struct {
	*fakeMember
	mu        sync.Mutex
	syncs     int
	delivered int
}

func (m *syncCountingMember) DeliverBlock(b *blockstore.Block) {
	m.mu.Lock()
	m.delivered++
	m.mu.Unlock()
	m.fakeMember.DeliverBlock(b)
}

func (m *syncCountingMember) Sync() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncs++
}

// TestPullSyncsOncePerBatch: a long catch-up delivers every block and
// flushes the puller exactly once, so a pipelined committer overlaps
// validation and persistence across the whole tail.
func TestPullSyncsOncePerBatch(t *testing.T) {
	source := newFakeMember("src")
	appendBlocks(t, source, 8)
	puller := &syncCountingMember{fakeMember: newFakeMember("dst")}
	g := New(Config{Interval: time.Hour}, puller, source)
	defer g.Stop()

	g.pull(puller, source)
	puller.mu.Lock()
	defer puller.mu.Unlock()
	if puller.delivered != 8 {
		t.Errorf("delivered %d blocks, want 8", puller.delivered)
	}
	if puller.syncs != 1 {
		t.Errorf("pull synced %d times, want exactly 1", puller.syncs)
	}
}

// TestBlockUnblockPartitionHeal: injectable per-link failures actually cut
// the link, and removing them lets the member converge.
func TestBlockUnblockPartitionHeal(t *testing.T) {
	a, b := newFakeMember("a"), newFakeMember("b")
	appendBlocks(t, a, 4)
	g := New(Config{Interval: 5 * time.Millisecond, Seed: 7}, a, b)
	defer g.Stop()

	g.Block("b", "a")
	time.Sleep(60 * time.Millisecond)
	if b.Height() != 0 {
		t.Fatalf("blocked link leaked %d blocks", b.Height())
	}
	// The reverse direction must be unaffected: a can still pull from b.
	if !g.linkOK("a", "b") {
		t.Error("Block cut the reverse direction too")
	}
	g.Unblock("b", "a")
	waitConverged(t, g, 5*time.Second)
	if b.Height() != 4 {
		t.Errorf("healed member height = %d, want 4", b.Height())
	}
}
