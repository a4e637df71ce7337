package fabric

import (
	"strings"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/offchain"
)

// slowEndorser delays proposals before delegating to a real peer, modelling
// the strangled straggler the quorum early-return exists for. called is
// closed once the (ignored) endorsement finally completes so the test can
// drain it before tearing the network down.
type slowEndorser struct {
	inner  Endorser
	delay  time.Duration
	called chan struct{}
}

func (s *slowEndorser) Name() string { return "slowpoke" }

func (s *slowEndorser) ProcessProposal(prop *endorser.Proposal) (*endorser.Response, error) {
	time.Sleep(s.delay)
	resp, err := s.inner.ProcessProposal(prop)
	close(s.called)
	return resp, err
}

// TestSubmitReturnsBeforeSlowEndorser pins the quorum early-return: with a
// majority of fast endorsers agreeing, Submit must not wait for a deliberately
// slow straggler, and the per-endorser latency gauges must expose who the
// straggler was.
func TestSubmitReturnsBeforeSlowEndorser(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowEndorser{
		inner:  n.Peers()[0],
		delay:  1500 * time.Millisecond,
		called: make(chan struct{}),
	}
	gw.AddEndorser(slow) // 4 fast peers + 1 slow = quorum of 3 fast ones

	start := time.Now()
	setRecord(t, gw, "fast-lane", "sha256:quick")
	elapsed := time.Since(start)
	if elapsed >= slow.delay {
		t.Fatalf("Submit took %v, waited for the %v straggler", elapsed, slow.delay)
	}

	// The straggler finishes in the background; its gauge then records the
	// latency the early-return kept off the transaction's critical path.
	select {
	case <-slow.called:
	case <-time.After(10 * time.Second):
		t.Fatal("straggler endorsement never completed")
	}
	waitFor(t, func() bool {
		return n.Metrics().Gauge(metrics.EndorsePeerLatency+"_slowpoke").Value() >= int64(slow.delay)
	})

	// Fast endorsers got gauges too, named after their peers.
	gauges := n.Metrics().GaugeSnapshot()
	fast := 0
	for name, v := range gauges {
		if strings.HasPrefix(name, metrics.EndorsePeerLatency+"_peer") && v > 0 {
			fast++
		}
	}
	if fast < 3 {
		t.Errorf("per-peer latency gauges = %d, want >= quorum (3); gauges: %v", fast, gauges)
	}
}

// The gateway groups endorsements by endorser.Response.Digest, so results
// that split the same bytes differently between rwset and payload land in
// different groups.
func TestLargestConsistentGroupRespectsFieldBoundaries(t *testing.T) {
	a := &endorser.Response{RWSet: []byte("ab"), Payload: []byte("c")}
	b := &endorser.Response{RWSet: []byte("a"), Payload: []byte("bc")}
	c := &endorser.Response{RWSet: []byte("a"), Payload: []byte("bc")}
	group := largestConsistentGroup([]*endorser.Response{a, b, c})
	if len(group) != 2 || group[0] != b || group[1] != c {
		t.Fatalf("group = %v, want the two (\"a\",\"bc\") responses", group)
	}
}

// The client machine's payload costs live in the metered store, not in the
// client library: exactly HashCost(n) + StoreCost(n) of busy time per Put
// and per Get on the gateway's executor, and nothing when the client is
// handed a bare store — hyperprov-net's RemoteStore link is already shaped
// by -latency / -mbps and must not pay the transfer a second time.
func TestMeteredStoreChargesPayloadCosts(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	// Only the two payload terms cost anything, so every nanosecond of
	// busy time below is theirs.
	prof := device.Profile{Name: "payload-only", Cores: 1, HashMBps: 38, StoreLatency: 6 * time.Millisecond, StoreMBps: 8}
	exec := device.NewExecutor(prof, device.NopClock{}, 1)
	gw, err := n.NewGatewayOn("metered", exec)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 96<<10)
	want := prof.HashCost(len(payload)) + prof.StoreCost(len(payload))

	backing := offchain.NewMemStore()
	metered := gw.MeteredStore(backing)
	ref, err := metered.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.BusyTime(); got != want {
		t.Errorf("Put charged %v, want HashCost+StoreCost = %v", got, want)
	}
	exec.ResetBusy()
	if _, err := metered.Get(ref); err != nil {
		t.Fatal(err)
	}
	if got := exec.BusyTime(); got != want {
		t.Errorf("Get charged %v, want HashCost+StoreCost = %v", got, want)
	}
	exec.ResetBusy()
	if _, err := metered.Get("mem://absent"); err == nil || exec.BusyTime() != 0 {
		t.Errorf("failed Get: err=%v, charged %v; want an error and no charge", err, exec.BusyTime())
	}

	for _, tc := range []struct {
		name  string
		store offchain.Store
		want  time.Duration
	}{{"bare", backing, 0}, {"metered", metered, 2 * want}} {
		c, err := core.New(gw, core.WithStore(tc.store))
		if err != nil {
			t.Fatal(err)
		}
		exec.ResetBusy()
		if _, err := c.StoreData("item-"+tc.name, payload, core.PostOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.GetData("item-" + tc.name); err != nil {
			t.Fatal(err)
		}
		if got := exec.BusyTime(); got != tc.want {
			t.Errorf("StoreData+GetData over a %s store charged %v, want %v", tc.name, got, tc.want)
		}
	}
}
