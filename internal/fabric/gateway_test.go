package fabric

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// slowEndorser delays proposals before delegating to a real peer, modelling
// the strangled straggler the quorum early-return exists for. called is
// closed once its one (ignored) endorsement finally completes so the test
// can drain it before tearing the network down.
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

// TestSubmitReturnsBeforeSlowEndorser pins what a straggler costs under the
// endorsement plan. On a single-org channel the commit peer settles the
// transaction and the slow endorser is never asked. On the consortium every
// Submit widens, and there the quorum early-return must not wait for the
// straggler, and the per-endorser latency gauges must expose who it was.
func TestSubmitReturnsBeforeSlowEndorser(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		asked bool
	}{{"single org", testConfig(), false}, {"three orgs", multiOrgConfig(), true}} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNetwork(t, tc.cfg)
			gw, err := n.NewGateway("client")
			if err != nil {
				t.Fatal(err)
			}
			slow := &slowEndorser{
				inner:  n.Peers()[0],
				delay:  1500 * time.Millisecond,
				called: make(chan struct{}),
			}
			gw.AddEndorser(slow) // widened: 4 fast peers + 1 slow = quorum of 3 fast ones
			widened := n.Metrics().Counter(metrics.GatewayEndorseWidened).Value()

			start := time.Now()
			setRecord(t, gw, "fast-lane", "sha256:quick")
			elapsed := time.Since(start)
			if elapsed >= slow.delay {
				t.Fatalf("Submit took %v, waited for the %v straggler", elapsed, slow.delay)
			}
			if !tc.asked {
				// Only a widened Submit asks the straggler.
				if got := n.Metrics().Counter(metrics.GatewayEndorseWidened).Value(); got != widened {
					t.Fatalf("single-org Submit widened (%d -> %d)", widened, got)
				}
				return
			}

			// The straggler finishes in the background; its gauge then records
			// the latency the early-return kept off the transaction's critical
			// path.
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
		})
	}
}

// badSignatureEndorser endorses through a real peer and flips the last byte
// of every signature it hands back: a hostile (or broken) endorser whose
// results agree with everyone else's but whose endorsements never verify.
type badSignatureEndorser struct {
	inner Endorser
	mu    sync.Mutex
	sigs  map[string]bool // every corrupted signature handed out
}

func (b *badSignatureEndorser) Name() string { return "badsig" }

func (b *badSignatureEndorser) ProcessProposal(prop *endorser.Proposal) (*endorser.Response, error) {
	resp, err := b.inner.ProcessProposal(prop)
	if err != nil {
		return nil, err
	}
	bad := *resp
	bad.Signature = append([]byte(nil), resp.Signature...)
	bad.Signature[len(bad.Signature)-1] ^= 1
	b.mu.Lock()
	b.sigs[string(bad.Signature)] = true
	b.mu.Unlock()
	return &bad, nil
}

// refusingChaincode fails every simulation: installed on one peer, it makes
// that peer's endorsements error while the others keep endorsing.
type refusingChaincode struct{}

func (refusingChaincode) Init(*shim.Stub) shim.Response { return shim.Errorf("refusing init") }

func (refusingChaincode) Invoke(stub *shim.Stub) shim.Response {
	return shim.Errorf("refusing %s", stub.Function())
}

// refuseOnCommitPeer makes the commit peer's every endorsement fail.
func refuseOnCommitPeer(t *testing.T, n *Network) {
	t.Helper()
	if err := n.Peers()[0].UpgradeChaincode(provenance.ChaincodeName, refusingChaincode{}, n.Policy()); err != nil {
		t.Fatal(err)
	}
}

// One endorser answering with corrupted signatures costs no transaction, and
// no committed envelope carries one of its signatures. On a single-org
// channel the commit peer settles every Submit, so the corrupted endorser is
// never asked. Where the plan widens it is asked and its endorsements are
// skipped: on the consortium, whose majority policy one org cannot satisfy,
// and when the commit peer's own endorsement fails.
func TestSubmitSurvivesBadSignatureEndorser(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cfg        Config
		peers      int
		failCommit bool
		asked      bool
	}{
		{"peers=1", testConfig(), 1, false, false},
		{"peers=4", testConfig(), 4, false, false},
		{"consortium", multiOrgConfig(), 4, false, true},
		{"commit peer fails", testConfig(), 4, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.PeerProfiles = cfg.PeerProfiles[:tc.peers]
			n := newTestNetwork(t, cfg)
			gw, err := n.NewGateway("client")
			if err != nil {
				t.Fatal(err)
			}
			if tc.failCommit {
				refuseOnCommitPeer(t, n)
			}
			// Wrapping a peer of another org than the commit peer's, the
			// corrupted endorser is a candidate for the consortium's second org.
			bad := &badSignatureEndorser{inner: n.Peers()[min(1, tc.peers-1)], sigs: map[string]bool{}}
			gw.AddEndorser(bad)
			const submits = 20
			var txIDs []string
			for i := 0; i < submits; i++ {
				in := fmt.Sprintf(`{"key":"badsig-%d","checksum":"cs"}`, i)
				res, err := submit(gw, provenance.ChaincodeName, provenance.FnSet, []byte(in))
				if err != nil {
					t.Errorf("Submit %d: %v", i, err)
					continue
				}
				txIDs = append(txIDs, res.TxID)
			}
			if failed := submits - len(txIDs); failed > 0 {
				t.Fatalf("%d of %d Submits failed beside one bad-signature endorser", failed, submits)
			}
			bad.mu.Lock()
			defer bad.mu.Unlock()
			if asked := len(bad.sigs) > 0; asked != tc.asked {
				t.Fatalf("the bad endorser asked: %v, want %v", asked, tc.asked)
			}
			for _, txID := range txIDs {
				env, code, err := gw.TxStatus(txID)
				if err != nil || code != blockstore.TxValid {
					t.Fatalf("TxStatus(%s) = %v, %v", txID, code, err)
				}
				for _, e := range env.Endorsements {
					if bad.sigs[string(e.Signature)] {
						t.Errorf("committed tx %s carries a corrupted endorsement", txID)
					}
				}
			}
		})
	}
}

// A committed envelope carries the endorsements the policy needs and no
// more: one on the single-org network (any member), two from two distinct
// orgs on the three-org consortium (a majority), although four peers endorse.
func TestEnvelopeCarriesOnlyPolicyEndorsements(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want int
	}{{"single org", testConfig(), 1}, {"three orgs", multiOrgConfig(), 2}} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNetwork(t, tc.cfg)
			gw, err := n.NewGateway("client")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				res := setRecord(t, gw, fmt.Sprintf("endorsed-%d", i), "cs")
				env, _, err := gw.TxStatus(res.TxID)
				if err != nil {
					t.Fatal(err)
				}
				orgs := map[string]bool{}
				for _, e := range env.Endorsements {
					id, err := n.msp.Deserialize(e.Endorser)
					if err != nil {
						t.Fatal(err)
					}
					orgs[id.MSPID()] = true
				}
				if len(env.Endorsements) != tc.want || len(orgs) != tc.want {
					t.Fatalf("tx %d carries %d endorsements from orgs %v, want %d from %d distinct orgs",
						i, len(env.Endorsements), orgs, tc.want, tc.want)
				}
			}
		})
	}
}

// The per-transaction signature budget of a Post on four single-org peers,
// counted by every ECDSA operation in the process: 3 signs (proposal, the
// commit peer's endorsement, envelope) and 3 verifies (the same three, each
// verified once and found in the peers' shared verification cache
// afterwards). GOMAXPROCS(1) keeps peers from checking the envelope at the
// same moment, each missing the cache, which a multi-core run adds on top.
// Each Post also settles on every peer before the next: a run of Posts
// whose goroutines hand the one processor on to each other outlasts the
// scheduler's 10 ms time slice, and a peer preempted mid-check lets another
// miss the cache too. Not parallel: the counters are process-wide.
func TestSubmitSignatureBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	setRecordSettled(t, gw, "budget-warm", "cs")
	const posts = 40
	signs0, verifies0 := identity.ECDSAOps()
	for i := 0; i < posts; i++ {
		setRecordSettled(t, gw, fmt.Sprintf("budget-%d", i), "cs")
	}
	signs, verifies := identity.ECDSAOps()
	if perTx := float64(signs-signs0) / posts; perTx != 3 {
		t.Errorf("%.3f ECDSA signs per transaction, want 3", perTx)
	}
	if perTx := float64(verifies-verifies0) / posts; perTx != 3 {
		t.Errorf("%.3f ECDSA verifies per transaction, want 3", perTx)
	}
}

// gateway_endorse_widened counts the Submits that asked beyond the commit
// peer: none of N single-org Posts, every one of N on the consortium, whose
// majority policy one org's endorsement cannot satisfy.
func TestEndorseWidenedCounter(t *testing.T) {
	const posts = 10
	for _, tc := range []struct {
		name string
		cfg  Config
		want int64
	}{{"single org", testConfig(), 0}, {"three orgs", multiOrgConfig(), posts}} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNetwork(t, tc.cfg)
			gw, err := n.NewGateway("client")
			if err != nil {
				t.Fatal(err)
			}
			widened := n.Metrics().Counter(metrics.GatewayEndorseWidened)
			before := widened.Value()
			for i := 0; i < posts; i++ {
				setRecord(t, gw, fmt.Sprintf("widened-%d", i), "cs")
			}
			if got := widened.Value() - before; got != tc.want {
				t.Errorf("%s after %d Posts = %d, want %d", metrics.GatewayEndorseWidened, posts, got, tc.want)
			}
		})
	}
}

// One client rewriting one key back to back on four peers sees every write
// commit valid. Each proposal is simulated on the commit peer, whose commit
// of the previous write Submit waited for, so no endorsement reads a
// version that write replaced. Endorsed by a majority of all four, a
// rewrite could read a stale version and commit as MVCC_READ_CONFLICT.
func TestBackToBackRewritesCommitValid(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	gw, err := n.NewGateway("client")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if res := setRecord(t, gw, "hot", fmt.Sprintf("cs-%d", i)); res.Code != blockstore.TxValid {
			t.Fatalf("rewrite %d committed as %s", i, res.Code)
		}
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

// The client machine pays for one Post in the order the client does the
// work: the proposal's Sign, one Verify of the commit peer's endorsement,
// the envelope's Sign and the transfer to the orderer — the cost-model
// inputs of Figs 1–3. Seeded jitter makes the busy time equal a reference
// executor's only in that order.
func TestPostChargesClientMachine(t *testing.T) {
	n := newTestNetwork(t, testConfig())
	exec := device.NewExecutor(device.XeonE51603, device.NopClock{}, 5)
	gw, err := n.NewGatewayOn("charged", exec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.New(gw)
	if err != nil {
		t.Fatal(err)
	}
	receipt, err := c.Post("charged", "cs", core.PostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env, _, err := gw.TxStatus(receipt.TxID)
	if err != nil {
		t.Fatal(err)
	}
	ref := device.NewExecutor(device.XeonE51603, device.NopClock{}, 5)
	ref.Sign()
	ref.Verify()
	ref.Sign()
	ref.Transfer(len(env.RWSet) + 768)
	if got, want := exec.BusyTime(), ref.BusyTime(); got != want {
		t.Errorf("client machine busy %v after one Post, want %v (Sign, Verify, Sign, Transfer)", got, want)
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
