package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// newClient spins up a fast in-process network with a memory off-chain
// store and returns a ready HyperProv client.
func newClient(t *testing.T) (*Client, *offchain.MemStore) {
	t.Helper()
	store := offchain.NewMemStore()
	return newClientWith(t, store), store
}

// newClientWith is newClient over the given off-chain store: four peers,
// one-transaction blocks, no modeled hardware charge.
func newClientWith(t testing.TB, store offchain.Store) *Client {
	t.Helper()
	cfg := fabric.DesktopConfig()
	cfg.Clock = device.NopClock{}
	cfg.Batch = orderer.BatchConfig{
		MaxMessageCount: 1, BatchTimeout: 50 * time.Millisecond, PreferredMaxBytes: 1 << 30,
	}
	n, err := fabric.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	if err := n.DeployChaincode(provenance.ChaincodeName,
		func() shim.Chaincode { return provenance.New() }); err != nil {
		t.Fatal(err)
	}
	gw, err := n.NewGateway("core-test")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(gw, WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	builtOn.Store(c, n.Channels()[0])
	return c
}

// builtOn remembers the channel each network-backed test client was built
// on (*Client → *fabric.Channel): the client itself holds only the gateway
// seam, and a few tests reach under it to enrol a sibling.
var builtOn sync.Map

func channelOf(c *Client) *fabric.Channel {
	ch, _ := builtOn.Load(c)
	return ch.(*fabric.Channel)
}

func TestPostAndGet(t *testing.T) {
	c, _ := newClient(t)
	receipt, err := c.Post("item1", "sha256:abc", PostOptions{Meta: map[string]string{"unit": "C"}})
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	if receipt.TxID == "" {
		t.Error("empty txid")
	}
	rec, err := c.Get("item1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if rec.Checksum != "sha256:abc" || rec.Meta["unit"] != "C" {
		t.Errorf("record = %+v", rec)
	}
	if rec.Creator != c.Subject() {
		t.Errorf("creator = %q, want %q", rec.Creator, c.Subject())
	}
}

func TestStoreDataGetDataRoundTrip(t *testing.T) {
	c, _ := newClient(t)
	payload := bytes.Repeat([]byte("sensor-frame-"), 1000)
	receipt, err := c.StoreData("frame1", payload, PostOptions{})
	if err != nil {
		t.Fatalf("StoreData: %v", err)
	}
	if receipt.Latency <= 0 {
		t.Error("no latency recorded")
	}
	got, rec, err := c.GetData("frame1")
	if err != nil {
		t.Fatalf("GetData: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload mismatch")
	}
	if rec.Checksum != offchain.Checksum(payload) {
		t.Errorf("checksum = %q", rec.Checksum)
	}
	if rec.Location == "" {
		t.Error("no off-chain location recorded")
	}
}

func TestTamperDetectionEndToEnd(t *testing.T) {
	c, store := newClient(t)
	if _, err := c.StoreData("critical", []byte("original measurement"), PostOptions{}); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Get("critical")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Corrupt(rec.Location); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.GetData("critical")
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("GetData of tampered payload = %v, want ErrTampered", err)
	}
}

func TestKeyHistory(t *testing.T) {
	c, _ := newClient(t)
	for i := 0; i < 3; i++ {
		if _, err := c.Post("evolving", fmt.Sprintf("cs-v%d", i), PostOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := c.GetKeyHistory("evolving")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history = %d versions, want 3", len(hist))
	}
	if hist[0].Record.Checksum != "cs-v0" || hist[2].Record.Checksum != "cs-v2" {
		t.Errorf("history order: %+v", hist)
	}
}

func TestLineageOperators(t *testing.T) {
	c, _ := newClient(t)
	mustPost := func(key string, parents ...string) {
		t.Helper()
		if _, err := c.Post(key, "cs-"+key, PostOptions{Parents: parents}); err != nil {
			t.Fatalf("Post %s: %v", key, err)
		}
	}
	mustPost("raw")
	mustPost("clean", "raw")
	mustPost("features", "clean")
	mustPost("model", "features")

	lineage, err := c.GetLineage("model")
	if err != nil {
		t.Fatal(err)
	}
	if len(lineage) != 4 {
		t.Errorf("lineage = %d, want 4", len(lineage))
	}
	desc, err := c.GetDescendants("raw")
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) != 3 {
		t.Errorf("descendants = %d, want 3", len(desc))
	}
}

func TestGetByChecksum(t *testing.T) {
	c, _ := newClient(t)
	payload := []byte("unique payload")
	if _, err := c.StoreData("item", payload, PostOptions{}); err != nil {
		t.Fatal(err)
	}
	rec, err := c.GetByChecksum(offchain.Checksum(payload))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Key != "item" {
		t.Errorf("resolved key = %q", rec.Key)
	}
}

func TestCheckTxn(t *testing.T) {
	c, _ := newClient(t)
	receipt, err := c.Post("item", "cs", PostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	status, err := c.CheckTxn(receipt.TxID)
	if err != nil {
		t.Fatalf("CheckTxn: %v", err)
	}
	if !status.Valid || status.Code != "VALID" {
		t.Errorf("status = %+v", status)
	}
	if _, err := c.CheckTxn("no-such-tx"); !errors.Is(err, ErrTxNotFound) {
		t.Errorf("missing tx = %v, want ErrTxNotFound", err)
	}
}

func TestDeleteAndStats(t *testing.T) {
	c, _ := newClient(t)
	if _, err := c.Post("a", "c1", PostOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("b", "c2", PostOptions{}); err != nil {
		t.Fatal(err)
	}
	s, err := c.GetStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != 2 {
		t.Errorf("records = %d, want 2", s.Records)
	}
	if _, err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	s, err = c.GetStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != 1 {
		t.Errorf("records after delete = %d, want 1", s.Records)
	}
	// History outlives the record.
	hist, err := c.GetKeyHistory("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Errorf("history after delete = %d entries, want 2", len(hist))
	}
}

func TestVerifyLedger(t *testing.T) {
	c, _ := newClient(t)
	if _, err := c.Post("x", "cs", PostOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyLedger(); err != nil {
		t.Errorf("VerifyLedger: %v", err)
	}
}

func TestGetDataWithoutLocation(t *testing.T) {
	c, _ := newClient(t)
	if _, err := c.Post("meta-only", "cs", PostOptions{}); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.GetData("meta-only")
	if !errors.Is(err, ErrNoLocation) {
		t.Errorf("err = %v, want ErrNoLocation", err)
	}
}

func TestClientWithoutStore(t *testing.T) {
	c, _ := newClient(t)
	noStore, err := New(cGateway(c))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noStore.StoreData("k", []byte("x"), PostOptions{}); err == nil {
		t.Error("StoreData without store succeeded")
	}
	if _, _, err := noStore.GetData("k"); err == nil {
		t.Error("GetData without store succeeded")
	}
}

// cGateway extracts the concrete gateway a network-backed test client was
// built on.
func cGateway(c *Client) *fabric.Gateway { return c.gw.(*fabric.Gateway) }

func TestNewRequiresGateway(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New without gateway succeeded")
	}
}
