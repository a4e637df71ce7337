package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/admin"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/shim"
)

func get(t *testing.T, url string) string {
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
	return string(body)
}

// A process serving one channel exposes it as a host of many does: every
// peer pipeline series carries the channel label, and /healthz has one
// channel entry.
func TestAdminLabelsSingleChannelProcess(t *testing.T) {
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
	p := n.Peers()[0]
	p.Sync()
	srv, err := options{admin: "127.0.0.1:0"}.startAdmin([]*peer.Peer{p}, n.Metrics(), n.Tracer(),
		func() int { return 0 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	label := `{channel="` + fabric.DefaultChannel + `"`
	series := 0
	for _, line := range strings.Split(strings.TrimSpace(get(t, srv.URL()+"/metrics")), "\n") {
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "net_") {
			continue
		}
		series++
		if !strings.Contains(line, label) {
			t.Errorf("series without %s}: %s", label, line)
		}
	}
	if series == 0 {
		t.Error("/metrics served no peer series")
	}

	var h admin.Health
	if err := json.Unmarshal([]byte(get(t, srv.URL()+"/healthz")), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Channels) != 1 || h.Channels[0].Channel != fabric.DefaultChannel || h.Channels[0].Height != p.Height() {
		t.Errorf("/healthz channels = %+v, want one entry for %s at height %d", h.Channels, fabric.DefaultChannel, p.Height())
	}
}
