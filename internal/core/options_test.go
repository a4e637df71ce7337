package core

import (
	"errors"
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
		if err := n.DeployChaincodeOn(ch, provenance.ChaincodeName,
			func() shim.Chaincode { return provenance.New() }); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// WithChannel must rebind the client to the sibling channel: records posted
// through it land on that channel only.
func TestWithChannelRebindsClient(t *testing.T) {
	n := newMultiChannelNet(t)
	gw, err := n.NewGateway("opts-client")
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(gw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(gw, WithChannel("tenant-b"))
	if err != nil {
		t.Fatal(err)
	}
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

// An unknown channel must fail at construction, not at first use.
func TestWithChannelUnknown(t *testing.T) {
	n := newMultiChannelNet(t)
	gw, err := n.NewGateway("opts-client2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(gw, WithChannel("tenant-z")); err == nil {
		t.Fatal("New with unknown channel succeeded")
	}
}

// WithTimeout must make commit waits fail fast; a client built without
// WithChannel binds to the network's first channel.
func TestWithTimeoutAndDefaultChannel(t *testing.T) {
	n := newMultiChannelNet(t)
	gw, err := n.NewGateway("opts-client3")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(gw, WithChannel("tenant-b"), WithTimeout(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("too-slow", "sha256:x", PostOptions{}); !errors.Is(err, fabric.ErrCommitTimeout) {
		t.Fatalf("post with 1ns timeout: err=%v, want commit timeout", err)
	}

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
