package peer

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/recovery"
)

// Multi-channel host tests: one durable Host serving two channels must keep
// the channels fully independent — separate ledgers, state, history, and
// recovery roots — and a crash must land BOTH channels back on the exact
// fingerprints of reference peers that never crashed.

// siblingFixtureOn builds a second fixture on the same CA/MSP as f but
// bound to a different channel, so one host (one MSP) can verify both
// channels' signed streams.
func siblingFixtureOn(f *fixture, channel string) *fixture {
	f.t.Helper()
	signer, err := f.ca.Enroll("peer-"+channel, identity.RolePeer)
	if err != nil {
		f.t.Fatal(err)
	}
	client, err := f.ca.Enroll("client-"+channel, identity.RoleClient)
	if err != nil {
		f.t.Fatal(err)
	}
	p := newVolatile(f.t, Config{Name: "peer-" + channel, Signer: signer, MSP: f.msp}, channel)
	if err := p.InstallChaincode(provenance.ChaincodeName, provenance.New(),
		endorser.SignedBy("Org1MSP")); err != nil {
		f.t.Fatal(err)
	}
	return &fixture{t: f.t, ca: f.ca, msp: f.msp, peer: p, client: client, channel: channel}
}

// openDurableHost opens a durable two-channel host rooted at dir and
// installs the provenance chaincode on both channels, as any app does at
// startup (re-declaring rich-query indexes).
func openDurableHost(f *fixture, dir string, every uint64, channels []string) *Host {
	f.t.Helper()
	signer, err := f.ca.Enroll(fmt.Sprintf("host-dur-%d", durableSeq.Add(1)), identity.RolePeer)
	if err != nil {
		f.t.Fatal(err)
	}
	h, err := Open(Config{
		Name: "durable-host", Signer: signer, MSP: f.msp, Channels: channels,
		Dir: dir, CheckpointEvery: every, CheckpointKeep: 2, SyncEachAppend: true,
	})
	if err != nil {
		f.t.Fatalf("Open: %v", err)
	}
	for _, ch := range h.Channels() {
		if err := h.Channel(ch).InstallChaincode(provenance.ChaincodeName, provenance.New(),
			endorser.SignedBy("Org1MSP")); err != nil {
			f.t.Fatal(err)
		}
	}
	return h
}

func TestTwoChannelHostCrashRecovery(t *testing.T) {
	const (
		numBlocks = 16
		txsPerBlk = 3
		ckptEvery = 4
		rounds    = 4
	)
	channels := []string{"alpha", "beta"}

	// One uninterrupted reference peer per channel; both streams are signed
	// under the same CA so the host's single MSP verifies either.
	fA := newFixtureOn(t, "alpha")
	fB := siblingFixtureOn(fA, "beta")
	streams := map[string][]*blockstore.Block{
		"alpha": buildTortureStream(fA, numBlocks, txsPerBlk),
		"beta":  buildTortureStream(fB, numBlocks, txsPerBlk),
	}
	refs := map[string]*Peer{"alpha": fA.peer, "beta": fB.peer}
	defer fA.peer.Stop()
	defer fB.peer.Stop()

	rng := rand.New(rand.NewSource(11))
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("round-%d", round), func(t *testing.T) {
			dir := t.TempDir()
			h := openDurableHost(fA, dir, ckptEvery, channels)

			// Feed each channel from its own goroutine up to an independent
			// randomized kill point: the two commit pipelines run
			// concurrently, exactly as they do in a live host.
			kills := map[string]int{
				"alpha": 1 + rng.Intn(numBlocks-1),
				"beta":  1 + rng.Intn(numBlocks-1),
			}
			var wg sync.WaitGroup
			for _, ch := range channels {
				wg.Add(1)
				go func(ch string) {
					defer wg.Done()
					p := h.Channel(ch)
					for _, b := range streams[ch][:kills[ch]] {
						p.CommitBlock(b)
					}
				}(ch)
			}
			wg.Wait()
			h.Crash()
			// On odd rounds a power loss additionally tears the final
			// append of one channel's block file (alternating which).
			if round%2 == 1 {
				torn := channels[(round/2)%len(channels)]
				tearTailAt(t, recovery.BlockFilePath(dir, torn), rng)
			}

			// Reopen: every channel recovers independently to within the
			// torn block of its own kill point, replays its missed tail,
			// and lands on its reference fingerprint.
			h2 := openDurableHost(fA, dir, ckptEvery, channels)
			for _, ch := range channels {
				p := h2.Channel(ch)
				hgt := p.Height()
				kill := kills[ch]
				if hgt < uint64(kill-1) || hgt > uint64(kill) {
					t.Fatalf("%s: recovered height = %d after kill at %d", ch, hgt, kill)
				}
				for _, b := range streams[ch][hgt:] {
					p.CommitBlock(b)
				}
				comparePeers(t, p, refs[ch], ch+" after recovery + tail")
			}
			// The two channels hold genuinely different states (their
			// records carry different creators), so matching the per-channel
			// references above is a real isolation check, not a tautology.
			if fp := h2.Channel("alpha").StateFingerprint(); fp == h2.Channel("beta").StateFingerprint() {
				t.Error("alpha and beta recovered to identical fingerprints; channels are not independent")
			}
			if err := h2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			// A clean close checkpoints every channel: the next open
			// restores both instantly, still at the reference fingerprints.
			h3 := openDurableHost(fA, dir, ckptEvery, channels)
			for _, ch := range channels {
				p := h3.Channel(ch)
				if info := p.Recovery(); info.ReplayedBlocks != 0 || info.CheckpointHeight != uint64(numBlocks) {
					t.Errorf("%s: reopen after clean close: %+v, want instant restore at %d",
						ch, info, numBlocks)
				}
				comparePeers(t, p, refs[ch], ch+" after clean close + reopen")
			}
			if err := h3.Close(); err != nil {
				t.Fatalf("final Close: %v", err)
			}
		})
	}
}

// TestHostChannelLayoutsAreDisjoint pins the on-disk contract: each channel
// of a multi-channel host owns its own block file and checkpoint root.
func TestHostChannelLayoutsAreDisjoint(t *testing.T) {
	if a, b := recovery.BlockFilePath("d", "alpha"), recovery.BlockFilePath("d", "beta"); a == b {
		t.Fatalf("channel block files collide: %s", a)
	}
	if a, b := recovery.CheckpointDir("d", "alpha"), recovery.CheckpointDir("d", "beta"); a == b {
		t.Fatalf("channel checkpoint roots collide: %s", a)
	}
}

// A host serves named channels only: no Channels is an error, not a default.
func TestHostRequiresChannels(t *testing.T) {
	f := newFixture(t)
	cfg := Config{Name: "nochannels", MSP: f.msp, Dir: t.TempDir()}
	if _, err := NewHost(cfg); err == nil {
		t.Error("NewHost without Channels succeeded")
	}
	if _, err := Open(cfg); err == nil {
		t.Error("Open without Channels succeeded")
	}
}
