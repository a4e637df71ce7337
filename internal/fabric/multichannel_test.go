package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// Cross-channel isolation tests: every channel of a multi-tenant network is
// a fully independent ledger. Nothing written on one channel — state,
// history, or the rich-query secondary indexes derived from it — may be
// observable from another, and a tenant's state fingerprint must not move
// when a neighbouring tenant commits.

// newTwoChannelNetwork assembles a network whose peers all serve tenant-a
// and tenant-b, with the provenance chaincode deployed on both.
func newTwoChannelNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	cfg.Channels = []ChannelConfig{{ID: "tenant-a"}, {ID: "tenant-b"}}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	for _, ch := range n.Channels() {
		if err := ch.DeployChaincode(provenance.ChaincodeName,
			func() shim.Chaincode { return provenance.New() }); err != nil {
			t.Fatalf("deploy on %s: %v", ch.ChannelID(), err)
		}
	}
	return n
}

func channelOf(t *testing.T, n *Network, id string) *Channel {
	t.Helper()
	ch, err := n.Channel(id)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func channelGateway(t *testing.T, n *Network, id string) *Gateway {
	t.Helper()
	gw, err := channelOf(t, n, id).NewGateway("client-" + id)
	if err != nil {
		t.Fatalf("NewGateway on %s: %v", id, err)
	}
	return gw
}

// setRecordSettled is setRecord followed by a wait until every peer of the
// gateway's channel has committed every block the channel's orderer has cut.
// A single-org Submit is endorsed on the commit peer it waited for, and needs
// no wait. On a consortium it widens to a majority of every peer but still
// waits for commit on peer 0 only, so without the wait a second write to the
// same key can be simulated by a stale majority against the version before
// the first write and commit as an MVCC conflict — or a write naming a
// parent can be simulated where the parent does not exist yet and miss its
// endorsement policy.
func setRecordSettled(t *testing.T, gw *Gateway, key, checksum string, parents ...string) {
	t.Helper()
	setRecord(t, gw, key, checksum, parents...)
	want := gw.ch.orderer.Height()
	for _, p := range gw.ch.peers {
		waitForHeight(t, p, want)
		p.Sync()
	}
}

func TestChannelStateAndHistoryIsolation(t *testing.T) {
	n := newTwoChannelNetwork(t, testConfig())
	gwA := channelGateway(t, n, "tenant-a")
	gwB := channelGateway(t, n, "tenant-b")

	// The same key lives on both channels with independent values and
	// version histories: two writes on tenant-a, one on tenant-b.
	setRecord(t, gwA, "shared", "sha256:a1")
	setRecord(t, gwA, "shared", "sha256:a2")
	setRecord(t, gwA, "only-a", "sha256:only")
	setRecord(t, gwB, "shared", "sha256:b1")

	readShared := func(gw *Gateway) string {
		payload, err := gw.Evaluate(provenance.ChaincodeName, provenance.FnGet, []byte("shared"))
		if err != nil {
			t.Fatalf("get shared on %s: %v", gw.ChannelID(), err)
		}
		var rec provenance.Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		return rec.Checksum
	}
	if got := readShared(gwA); got != "sha256:a2" {
		t.Errorf("tenant-a shared = %s, want sha256:a2", got)
	}
	if got := readShared(gwB); got != "sha256:b1" {
		t.Errorf("tenant-b shared = %s, want sha256:b1", got)
	}

	// A key written only on tenant-a does not exist on tenant-b.
	if _, err := gwB.Evaluate(provenance.ChaincodeName, provenance.FnGet, []byte("only-a")); err == nil {
		t.Error("tenant-b can read a key written only on tenant-a")
	}

	// Each channel's history database holds only its own versions.
	historyLen := func(gw *Gateway) int {
		payload, err := gw.Evaluate(provenance.ChaincodeName, provenance.FnGetHistory, []byte("shared"))
		if err != nil {
			t.Fatalf("getHistory on %s: %v", gw.ChannelID(), err)
		}
		var entries []provenance.HistoryRecord
		if err := json.Unmarshal(payload, &entries); err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	if got := historyLen(gwA); got != 2 {
		t.Errorf("tenant-a history depth = %d, want 2", got)
	}
	if got := historyLen(gwB); got != 1 {
		t.Errorf("tenant-b history depth = %d, want 1 (tenant-a's versions bled across)", got)
	}
}

// A gateway serves its own channel only. A tenant-b proposal fails through
// tenant-a's Endorse, at the peers. A tenant-b envelope is refused by
// tenant-a's Submit before it is ordered: neither the orderer nor the
// committer checks an envelope's channel, so it would commit on tenant-a.
func TestGatewayRefusesAnotherChannelsTransaction(t *testing.T) {
	n := newTwoChannelNetwork(t, testConfig())
	gwA, gwB := channelGateway(t, n, "tenant-a"), channelGateway(t, n, "tenant-b")
	transact := func(endorse func(*endorser.Proposal) ([]*endorser.Response, error)) (blockstore.Envelope, error) {
		return endorser.Transact(gwB.Identity(), "tenant-b", provenance.ChaincodeName, provenance.FnSet,
			[][]byte{[]byte(`{"key":"cross","checksum":"sha256:x"}`)}, endorse)
	}
	// Endorse refuses the proposal before it asks any peer.
	failed := func() (sum int64) {
		for _, ch := range n.Channels() {
			for _, p := range ch.Peers() {
				sum += p.Metrics().Counter(metrics.EndorsementsFailed).Value()
			}
		}
		return sum
	}
	widened := n.Metrics().Counter(metrics.GatewayEndorseWidened)
	failedBefore, widenedBefore := failed(), widened.Value()
	if _, err := transact(gwA.Endorse); !errors.Is(err, peer.ErrWrongChannel) {
		t.Errorf("tenant-b proposal through tenant-a's Endorse: err = %v, want peer.ErrWrongChannel", err)
	}
	if got := failed(); got != failedBefore {
		t.Errorf("endorsements_failed moved %d -> %d: a peer was asked", failedBefore, got)
	}
	if got := widened.Value(); got != widenedBefore {
		t.Errorf("gateway_endorse_widened moved %d -> %d", widenedBefore, got)
	}
	env, err := transact(gwB.Endorse)
	if err != nil {
		t.Fatal(err)
	}
	height := gwA.commitPeer().Height()
	if _, err := gwA.Submit(env); !errors.Is(err, peer.ErrWrongChannel) {
		t.Errorf("tenant-b envelope through tenant-a's Submit: err = %v, want peer.ErrWrongChannel", err)
	}
	if h := gwA.commitPeer().Height(); h != height {
		t.Errorf("tenant-a height moved %d -> %d", height, h)
	}
	if _, err := gwA.Evaluate(provenance.ChaincodeName, provenance.FnGet, []byte("cross")); err == nil {
		t.Error("tenant-a serves the record of a tenant-b envelope")
	}
}

func TestChannelRichQueryIndexIsolation(t *testing.T) {
	n := newTwoChannelNetwork(t, testConfig())
	gwA := channelGateway(t, n, "tenant-a")
	gwB := channelGateway(t, n, "tenant-b")

	for i := 0; i < 3; i++ {
		setRecord(t, gwA, fmt.Sprintf("a-item-%d", i), fmt.Sprintf("sha256:a-%d", i))
	}
	setRecord(t, gwB, "b-item", "sha256:b-0")

	// The checksum secondary index is per channel: tenant-a's checksums do
	// not resolve on tenant-b, while tenant-b's own do.
	if _, err := gwB.Evaluate(provenance.ChaincodeName, provenance.FnGetByChecksum,
		[]byte("sha256:a-1")); err == nil {
		t.Error("tenant-b resolved a checksum indexed only on tenant-a")
	}
	if _, err := gwB.Evaluate(provenance.ChaincodeName, provenance.FnGetByChecksum,
		[]byte("sha256:b-0")); err != nil {
		t.Errorf("tenant-b cannot resolve its own checksum: %v", err)
	}

	// A Mango rich query over all records, served from each channel's
	// indexed state store, sees only that channel's rows.
	queryAll := func(gw *Gateway) []provenance.Record {
		payload, err := gw.Evaluate(provenance.ChaincodeName, provenance.FnRichQuery,
			[]byte(`{"selector":{"ts":{"$gt":0}}}`))
		if err != nil {
			t.Fatalf("richQuery on %s: %v", gw.ChannelID(), err)
		}
		var page provenance.QueryPage
		if err := json.Unmarshal(payload, &page); err != nil {
			t.Fatal(err)
		}
		return page.Records
	}
	if recs := queryAll(gwA); len(recs) != 3 {
		t.Errorf("tenant-a rich query returned %d records, want 3", len(recs))
	}
	recs := queryAll(gwB)
	if len(recs) != 1 {
		t.Errorf("tenant-b rich query returned %d records, want 1", len(recs))
	}
	for _, r := range recs {
		if r.Key != "b-item" {
			t.Errorf("tenant-b rich query surfaced foreign record %q", r.Key)
		}
	}
}

func TestChannelFingerprintUnmovedByNeighbour(t *testing.T) {
	n := newTwoChannelNetwork(t, testConfig())
	gwA := channelGateway(t, n, "tenant-a")
	gwB := channelGateway(t, n, "tenant-b")

	setRecord(t, gwA, "a-base", "sha256:base")
	peersA := channelOf(t, n, "tenant-a").Peers()
	// Let the a-base block finish disseminating so the baseline is not
	// racing ordinary intra-channel propagation.
	deadline := time.Now().Add(5 * time.Second)
	for {
		heights := map[uint64]int{}
		for _, p := range peersA {
			p.Sync()
			heights[p.Height()]++
		}
		if len(heights) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant-a peers did not converge: %v", heights)
		}
		time.Sleep(5 * time.Millisecond)
	}
	type snap struct {
		height uint64
		fp     string
	}
	before := make([]snap, len(peersA))
	for i, p := range peersA {
		before[i] = snap{p.Height(), p.StateFingerprint()}
	}

	// A burst of tenant-b commits must leave every tenant-a peer's height,
	// state fingerprint, and snapshot reads exactly where they were.
	for i := 0; i < 8; i++ {
		setRecord(t, gwB, fmt.Sprintf("b-burst-%d", i), fmt.Sprintf("sha256:burst-%d", i))
	}
	for i, p := range peersA {
		p.Sync()
		if got := p.Height(); got != before[i].height {
			t.Errorf("%s tenant-a height moved %d -> %d on tenant-b commits",
				p.Name(), before[i].height, got)
		}
		if got := p.StateFingerprint(); got != before[i].fp {
			t.Errorf("%s tenant-a fingerprint changed on tenant-b commits", p.Name())
		}
	}
	// And the record written before the burst still reads back unchanged.
	payload, err := gwA.Evaluate(provenance.ChaincodeName, provenance.FnGet, []byte("a-base"))
	if err != nil {
		t.Fatal(err)
	}
	var rec provenance.Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Checksum != "sha256:base" {
		t.Errorf("tenant-a record corrupted by tenant-b burst: %+v", rec)
	}
}

// The single-channel spelling is promotion of the first channel's methods,
// not a second code path: the network answers exactly what its first handle
// does, and an unknown channel errors naming the ones that are served.
func TestNetworkPromotesItsFirstChannel(t *testing.T) {
	n := newTwoChannelNetwork(t, testConfig())
	first := n.Channels()[0]
	if first != channelOf(t, n, "tenant-a") || len(n.Channels()) != 2 {
		t.Fatalf("Channels() = %v, want tenant-a first of two", n.Channels())
	}
	if n.ChannelID() != first.ChannelID() || n.ChannelID() != "tenant-a" {
		t.Errorf("ChannelID = %q, first handle's %q", n.ChannelID(), first.ChannelID())
	}
	if len(n.Peers()) != len(first.Peers()) {
		t.Fatalf("Peers() has %d instances, the first channel's %d", len(n.Peers()), len(first.Peers()))
	}
	for i, p := range first.Peers() {
		if n.Peers()[i] != p {
			t.Errorf("Peers()[%d] is not the first channel's instance", i)
		}
	}
	if n.Orderer() != first.Orderer() {
		t.Error("Orderer() differs from the first channel's")
	}
	if second := channelOf(t, n, "tenant-b"); second.Orderer() == n.Orderer() || second.Peers()[0] == n.Peers()[0] {
		t.Error("tenant-b shares an orderer or peer instance with the first channel")
	}

	_, err := n.Channel("nope")
	if err == nil || !strings.Contains(err.Error(), "tenant-a") || !strings.Contains(err.Error(), "tenant-b") {
		t.Errorf("Channel(nope) error = %v, want one naming the served channels", err)
	}
}

// chaincodeVersion asks whatever is deployed under the provenance chaincode
// name on gw's channel for its version string.
func chaincodeVersion(t *testing.T, gw *Gateway) string {
	t.Helper()
	payload, err := gw.Evaluate(provenance.ChaincodeName, provenance.FnVersion)
	if err != nil {
		t.Fatalf("version on %s: %v", gw.ChannelID(), err)
	}
	return string(payload)
}

// An upgrade is channel-scoped: tenant-b runs the new implementation and its
// ledger records the upgrade, while tenant-a keeps the old implementation
// and its height.
func TestUpgradeChaincodeOnNonFirstChannel(t *testing.T) {
	n := newTwoChannelNetwork(t, testConfig())
	a, b := channelOf(t, n, "tenant-a"), channelOf(t, n, "tenant-b")
	gwA, gwB := channelGateway(t, n, "tenant-a"), channelGateway(t, n, "tenant-b")
	versionA, heightA, heightB := chaincodeVersion(t, gwA), a.Orderer().Height(), b.Orderer().Height()

	if err := b.UpgradeChaincode(provenance.ChaincodeName,
		func() shim.Chaincode { return echoChaincode{} }); err != nil {
		t.Fatalf("upgrade on tenant-b: %v", err)
	}
	if got := chaincodeVersion(t, gwB); got != "v2:"+provenance.FnVersion {
		t.Errorf("tenant-b version after upgrade = %q, want the v2 echo", got)
	}
	if got := b.Peers()[0].Height(); got != heightB+1 {
		t.Errorf("tenant-b height = %d after upgrade, want %d", got, heightB+1)
	}
	if got := chaincodeVersion(t, gwA); got != versionA {
		t.Errorf("tenant-a version moved %q -> %q on a tenant-b upgrade", versionA, got)
	}
	if got := a.Orderer().Height(); got != heightA {
		t.Errorf("tenant-a height moved %d -> %d on a tenant-b upgrade", heightA, got)
	}
}

// A gossip-only peer added to tenant-b converges to tenant-b's fingerprint
// through tenant-b's gossip stream and never receives a tenant-a block.
func TestAddGossipPeerOnNonFirstChannel(t *testing.T) {
	cfg := testConfig()
	cfg.Gossip = true
	n := newTwoChannelNetwork(t, cfg)
	b := channelOf(t, n, "tenant-b")
	edge, err := b.AddGossipPeer(device.RPi3BPlus,
		map[string]shim.Chaincode{provenance.ChaincodeName: provenance.New()})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.Peers()); got != len(n.Peers())+1 {
		t.Errorf("tenant-b has %d peers, tenant-a %d: the edge joined the wrong channel", got, len(n.Peers()))
	}

	gwA, gwB := channelGateway(t, n, "tenant-a"), channelGateway(t, n, "tenant-b")
	for i := 0; i < 3; i++ {
		setRecord(t, gwA, fmt.Sprintf("a-only-%d", i), "sha256:a")
	}
	setRecord(t, gwB, "b-item", "sha256:b")

	primary := b.Peers()[0]
	waitForHeight(t, edge, primary.Height())
	edge.Sync()
	if edge.Height() != primary.Height() || edge.StateFingerprint() != primary.StateFingerprint() {
		t.Errorf("edge at height %d fingerprint %s, tenant-b primary at %d %s",
			edge.Height(), edge.StateFingerprint(), primary.Height(), primary.StateFingerprint())
	}
	err = edge.Blocks(0, func(blk *blockstore.Block) error {
		for _, env := range blk.Envelopes {
			if env.ChannelID != "tenant-b" {
				return fmt.Errorf("edge holds a %s transaction in block %d", env.ChannelID, blk.Header.Number)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := edge.Query(provenance.ChaincodeName, provenance.FnGet,
		[][]byte{[]byte("a-only-0")}, gwB.Identity().Serialize()); err == nil && resp.Status == shim.OK {
		t.Error("edge answers a tenant-a key")
	}
}

// A gateway minted for a specific org on tenant-b endorses on tenant-b's
// peers, commits on tenant-b's ledger, and leaves tenant-a's alone.
func TestNewGatewayForOnNonFirstChannel(t *testing.T) {
	n := newTwoChannelNetwork(t, multiOrgConfig())
	a, b := channelOf(t, n, "tenant-a"), channelOf(t, n, "tenant-b")
	gw, err := b.NewGatewayFor("OrgB", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if gw.Identity().Org() != "OrgB" || gw.ch != b || gw.ChannelID() != "tenant-b" {
		t.Fatalf("gateway org %q on channel %q", gw.Identity().Org(), gw.ChannelID())
	}
	heightA := a.Orderer().Height()
	res := setRecord(t, gw, "orgb-on-b", "sha256:b")
	if _, _, err := b.Peers()[0].Ledger().GetTx(res.TxID); err != nil {
		t.Errorf("tenant-b ledger lacks the transaction: %v", err)
	}
	if _, _, err := a.Peers()[0].Ledger().GetTx(res.TxID); err == nil {
		t.Error("tenant-a ledger holds a tenant-b transaction")
	}
	if got := a.Orderer().Height(); got != heightA {
		t.Errorf("tenant-a height moved %d -> %d", heightA, got)
	}
	if _, err := b.NewGatewayFor("NoSuchOrg", "x"); err == nil {
		t.Error("unknown org accepted")
	}
}
