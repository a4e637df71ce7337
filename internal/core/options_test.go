package core

import (
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// newMultiChannelNet builds a two-channel network with the provenance
// chaincode deployed on both channels.
func newMultiChannelNet(t *testing.T) *fabric.Network {
	t.Helper()
	cfg := fabric.DesktopConfig()
	cfg.Clock = device.NopClock{}
	cfg.Batch = orderer.BatchConfig{
		MaxMessageCount: 1, BatchTimeout: 50 * time.Millisecond, PreferredMaxBytes: 1 << 30,
	}
	cfg.Channels = []fabric.ChannelConfig{{ID: "tenant-a"}, {ID: "tenant-b"}}
	n, err := fabric.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	for _, ch := range n.Channels() {
		if err := ch.DeployChaincode(provenance.ChaincodeName,
			func() shim.Chaincode { return provenance.New() }); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// channelClient binds a fresh client identity to one channel of n.
func channelClient(t *testing.T, n *fabric.Network, channel, name string) *Client {
	t.Helper()
	ch, err := n.Channel(channel)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := ch.NewGateway(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(gw)
	if err != nil {
		t.Fatal(err)
	}
	builtOn.Store(c, ch)
	return c
}

// A client over a sibling channel's gateway is bound to that channel:
// records posted through it land there only.
func TestWithChannelRebindsClient(t *testing.T) {
	n := newMultiChannelNet(t)
	a := channelClient(t, n, "tenant-a", "opts-client")
	b := channelClient(t, n, "tenant-b", "opts-client")
	if a.Channel() != "tenant-a" || b.Channel() != "tenant-b" {
		t.Fatalf("channels = %q, %q; want tenant-a, tenant-b", a.Channel(), b.Channel())
	}
	if _, err := b.Post("b-only", "sha256:b", PostOptions{}); err != nil {
		t.Fatalf("post on tenant-b: %v", err)
	}
	if rec, err := b.Get("b-only"); err != nil || rec.Checksum != "sha256:b" {
		t.Fatalf("get on tenant-b: rec=%v err=%v", rec, err)
	}
	if _, err := a.Get("b-only"); err == nil {
		t.Fatal("tenant-b record visible through tenant-a client")
	}
}

// An unknown channel must fail when the handle is asked for — before any
// gateway or client exists — not at first use.
func TestWithChannelUnknown(t *testing.T) {
	n := newMultiChannelNet(t)
	if ch, err := n.Channel("tenant-z"); err == nil {
		t.Fatalf("Channel(tenant-z) = %v, want unknown-channel error", ch.ChannelID())
	}
}

// A client over a gateway minted by the network itself binds to the
// network's first channel.
func TestDefaultChannel(t *testing.T) {
	n := newMultiChannelNet(t)
	gw2, err := n.NewGateway("opts-client4")
	if err != nil {
		t.Fatal(err)
	}
	store := offchain.NewMemStore()
	def, err := New(gw2, WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	if def.Channel() != "tenant-a" {
		t.Fatalf("default client channel = %q, want tenant-a", def.Channel())
	}
	if _, err := def.StoreData("default-key", []byte("payload"), PostOptions{}); err != nil {
		t.Fatalf("StoreData: %v", err)
	}
	if data, _, err := def.GetData("default-key"); err != nil || string(data) != "payload" {
		t.Fatalf("GetData: data=%q err=%v", data, err)
	}
}

// Watch must deliver the bound channel's record events and none of a
// sibling's: the tenant-b watcher's first event is tenant-b's write even
// though tenant-a committed one first.
func TestWatchIsChannelScoped(t *testing.T) {
	n := newMultiChannelNet(t)
	a := channelClient(t, n, "tenant-a", "watch-a")
	b := channelClient(t, n, "tenant-b", "watch-b")
	watch, stop := b.Watch()
	defer stop()
	if _, err := a.Post("a-key", "sha256:a", PostOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Post("b-key", "sha256:b", PostOptions{}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-watch:
		if ev.Key != "b-key" {
			t.Fatalf("tenant-b watcher saw %q first, want b-key", ev.Key)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tenant-b watcher saw no event")
	}
}
