package admin

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/trace"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// scrapeChannel checks that /metrics carries each want as a whole line: a
// "name value" sample with the channel label put on it, a comment line as
// it is.
func scrapeChannel(t *testing.T, srv *Server, channel string, wants ...string) {
	t.Helper()
	_, body := get(t, srv.URL()+"/metrics")
	for _, want := range wants {
		if name, value, ok := strings.Cut(want, " "); ok && name != "#" {
			want = fmt.Sprintf("%s{channel=%q} %s", name, channel, value)
		}
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

func TestAdminEndpoints(t *testing.T) {
	peerReg := metrics.NewRegistry()
	peerReg.Counter(metrics.BlocksCommitted).Add(3)
	peerReg.Histogram(metrics.CommitStagePersist).Observe(2 * time.Millisecond)
	netReg := metrics.NewRegistry()
	netReg.Counter(metrics.GossipRounds).Add(7)

	tracer := trace.NewRecorder()
	start := time.Now()
	tracer.Observe("tx-1", trace.StagePropose, "gateway", start, "")
	tracer.Observe("tx-1", trace.StageCommitPersist, "peer0", start, "")
	tracer.Complete("tx-1", "VALID")

	srv, err := New("127.0.0.1:0", Config{
		Network:  netReg,
		Channels: map[string]*metrics.Registry{"ch": peerReg},
		Tracer:   tracer,
		HealthFunc: func() Health {
			return Health{
				Peer:               "peer0",
				GossipPeers:        2,
				TransportLastError: "dial tcp: refused",
				Channels:           []ChannelHealth{{Channel: "ch", Height: 4, LastCommitAgeMs: 12}},
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	code, body := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		`blocks_committed{channel="ch"} 3`,
		"net_gossip_rounds 7",
		`commit_stage_persist_count{channel="ch"} 1`,
		"# TYPE commit_stage_persist histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	code, body = get(t, srv.URL()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if h.Peer != "peer0" || h.GossipPeers != 2 || h.TransportLastError == "" || len(h.Channels) != 1 || h.Channels[0].Height != 4 {
		t.Errorf("health = %+v", h)
	}

	code, body = get(t, srv.URL()+"/tracez")
	if code != http.StatusOK {
		t.Fatalf("/tracez status = %d", code)
	}
	var tz struct {
		Recent []trace.Trace `json:"recent"`
		Slow   []trace.Trace `json:"slow"`
	}
	if err := json.Unmarshal([]byte(body), &tz); err != nil {
		t.Fatalf("/tracez not JSON: %v\n%s", err, body)
	}
	if len(tz.Recent) != 1 || tz.Recent[0].ID != "tx-1" || tz.Recent[0].Outcome != "VALID" {
		t.Errorf("recent = %+v", tz.Recent)
	}
	if len(tz.Recent[0].Spans) != 2 {
		t.Errorf("spans = %+v", tz.Recent[0].Spans)
	}
	if len(tz.Slow) != 1 {
		t.Errorf("slow = %+v", tz.Slow)
	}

	// pprof index answers (profiles themselves are too slow for a unit test).
	code, _ = get(t, srv.URL()+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
}

// Nil tracer and health func must serve empty documents, not panic.
func TestAdminNilSources(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	code, body := get(t, srv.URL()+"/tracez")
	if code != http.StatusOK {
		t.Fatalf("/tracez status = %d", code)
	}
	if !strings.Contains(body, `"recent"`) {
		t.Errorf("tracez body = %s", body)
	}
	code, _ = get(t, srv.URL()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	code, _ = get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
}

// A host exposes one registry per channel on the same scrape, distinguished
// by the channel label, and breaks health down per channel.
func TestAdminChannelScopedMetrics(t *testing.T) {
	host := metrics.NewRegistry()
	host.Counter(metrics.GossipRounds).Add(9)
	alpha := metrics.NewRegistry()
	alpha.Counter(metrics.BlocksCommitted).Add(5)
	alpha.Histogram(metrics.CommitStagePersist).Observe(time.Millisecond)
	beta := metrics.NewRegistry()
	beta.Counter(metrics.BlocksCommitted).Add(2)

	srv, err := New("127.0.0.1:0", Config{
		Network:  host,
		Channels: map[string]*metrics.Registry{"alpha": alpha, "beta": beta},
		HealthFunc: func() Health {
			return Health{
				Peer: "host0",
				Channels: []ChannelHealth{
					{Channel: "alpha", Height: 5, LastCommitAgeMs: 3},
					{Channel: "beta", Height: 2, LastCommitAgeMs: 40},
				},
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	code, body := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"net_gossip_rounds 9",
		`blocks_committed{channel="alpha"} 5`,
		`blocks_committed{channel="beta"} 2`,
		`commit_stage_persist_count{channel="alpha"} 1`,
		`commit_stage_persist_bucket{channel="alpha",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	code, body = get(t, srv.URL()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if len(h.Channels) != 2 || h.Channels[0].Channel != "alpha" || h.Channels[1].Height != 2 {
		t.Errorf("channel health = %+v", h.Channels)
	}
}

// A peer's registry carries its MSP's identity table and signature cache,
// sampled at scrape time: /metrics answers "is identity resolution warm on
// this peer" without a debugger.
func TestAdminExposesIdentityAndSignatureCaches(t *testing.T) {
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	signer, err := ca.Enroll("peer0", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	msp := identity.NewMSP(ca)
	host, err := peer.NewHost(peer.Config{Name: "peer0", Signer: signer, MSP: msp, Channels: []string{"ch"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(host.Stop)
	srv, err := New("127.0.0.1:0", Config{Channels: map[string]*metrics.Registry{"ch": host.Channel("ch").Metrics()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	resolveAndVerify := func() {
		t.Helper()
		id, err := msp.Deserialize(signer.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("endorsed bytes")
		sig, err := signer.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := id.VerifyCached(msp.VerifyCache(), sha256.Sum256(msg), sig, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The ECDSA counters are process-wide: expect growth from here.
	signs, verifies := identity.ECDSAOps()
	ecdsa := func(executed uint64) []string {
		return []string{
			fmt.Sprintf("identity_ecdsa_signs %d", signs+executed),
			fmt.Sprintf("identity_ecdsa_verifies %d", verifies+executed),
		}
	}
	scrape := func(wants ...string) { t.Helper(); scrapeChannel(t, srv, "ch", wants...) }

	resolveAndVerify() // cold: one miss, one entry in each cache
	scrape(
		"# TYPE identity_cache_hits gauge",
		"identity_cache_hits 0", "identity_cache_misses 1", "identity_cache_entries 1",
		"verify_cache_hits 0", "verify_cache_misses 1", "verify_cache_entries 1",
		"# TYPE identity_ecdsa_signs gauge",
	)
	scrape(ecdsa(1)...)
	resolveAndVerify() // the identity is interned; the fresh signature is a new triple
	scrape(
		"identity_cache_hits 1", "identity_cache_misses 1", "identity_cache_entries 1",
		"verify_cache_hits 0", "verify_cache_misses 2", "verify_cache_entries 2",
	)
	scrape(ecdsa(2)...)
}

// The peer's registry says what its rich queries cost: how many an index
// range answered outright, and how many documents the others decoded — "why
// is this query slow" read off /metrics instead of a profile.
func TestAdminExposesRichQueryCost(t *testing.T) {
	cfg := fabric.DesktopConfig()
	cfg.Clock = device.NopClock{}
	cfg.Batch = orderer.BatchConfig{MaxMessageCount: 1, BatchTimeout: 50 * time.Millisecond, PreferredMaxBytes: 1 << 30}
	n, err := fabric.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	if err := n.DeployChaincode(provenance.ChaincodeName, func() shim.Chaincode { return provenance.New() }); err != nil {
		t.Fatal(err)
	}
	gw, err := n.NewGateway("admin-test")
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.New(gw)
	if err != nil {
		t.Fatal(err)
	}
	// Queries are evaluated on peer 0, which Post waits on.
	srv, err := New("127.0.0.1:0", Config{Channels: map[string]*metrics.Registry{n.ChannelID(): n.Peers()[0].Metrics()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	scrape := func(wants ...string) { t.Helper(); scrapeChannel(t, srv, n.ChannelID(), wants...) }
	scrape("# TYPE statedb_query_docs_decoded counter", "statedb_query_docs_decoded 0",
		"# TYPE statedb_queries_exact_range counter", "statedb_queries_exact_range 0")

	for i, typ := range []string{"raw", "raw", "model"} {
		if _, err := client.Post(fmt.Sprintf("item-%d", i), fmt.Sprintf("cs-%d", i),
			core.PostOptions{Meta: map[string]string{"type": typ}}); err != nil {
			t.Fatal(err)
		}
	}
	if recs, err := client.GetByType("raw"); err != nil || len(recs) != 2 {
		t.Fatalf("GetByType = %d records, %v", len(recs), err)
	}
	scrape("statedb_query_docs_decoded 0", "statedb_queries_exact_range 1")
	// A sort needs the documents: the by-type range of two is decoded.
	if page, err := client.RichQuery(`{"selector":{"meta.type":"raw"},"sort":[{"ts":"desc"}]}`); err != nil || len(page.Records) != 2 {
		t.Fatalf("RichQuery = %+v, %v", page, err)
	}
	scrape("statedb_query_docs_decoded 2", "statedb_queries_exact_range 1")
	// No index on checksum: every document in state is decoded.
	if page, err := client.RichQuery(`{"selector":{"checksum":"cs-2"}}`); err != nil || len(page.Records) != 1 {
		t.Fatalf("RichQuery = %+v, %v", page, err)
	}
	scrape("statedb_query_docs_decoded 5", "statedb_queries_exact_range 1")
}
