package peer

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/recovery"
	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// Crash-recovery torture tests: commit part of a signed block stream on a
// durable peer, kill it at a randomized point (optionally tearing the block
// file's final record, as a power loss mid-append would), reopen from disk,
// feed the rest of the stream, and require the recovered peer to be
// indistinguishable — state fingerprint, history fingerprint, rich-query
// results, chain audit — from a reference peer that never crashed.

// tortureQuery is the rich query every comparison re-runs; it exercises the
// provenance chaincode's by-owner secondary index.
func tortureQuery(t *testing.T, p *Peer) []statedb.KV {
	t.Helper()
	q, err := richquery.ParseQuery([]byte(`{"selector":{"ts":{"$gt":0}},"sort":[{"ts":"asc"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.state.ExecuteQuery(q)
	if err != nil {
		t.Fatalf("rich query: %v", err)
	}
	return res.KVs
}

// durableSeq uniquifies enrollment IDs across the durable peers a torture
// run opens (the CA refuses duplicate enrollments).
var durableSeq atomic.Int64

// openDurable opens a durable peer over the fixture's identities and
// installs the provenance chaincode (redeclaring its indexes, as any app
// does at startup).
func (f *fixture) openDurable(dir string, every uint64) *Peer {
	f.t.Helper()
	signer, err := f.ca.Enroll(fmt.Sprintf("peer-dur-%d", durableSeq.Add(1)), identity.RolePeer)
	if err != nil {
		f.t.Fatal(err)
	}
	host, err := Open(Config{
		Name: "durable", Signer: signer, MSP: f.msp, Channels: []string{"ch"},
		Dir: dir, CheckpointEvery: every, CheckpointKeep: 2, SyncEachAppend: true,
	})
	if err != nil {
		f.t.Fatalf("Open: %v", err)
	}
	p := host.Channel("ch")
	if err := p.InstallChaincode(provenance.ChaincodeName, provenance.New(),
		endorser.SignedBy("Org1MSP")); err != nil {
		f.t.Fatal(err)
	}
	return p
}

// buildTortureStream endorses and commits blocks*txs transactions on the
// fixture's (volatile, uninterrupted) peer — the reference run — and
// returns the resulting block stream. Roughly a third of the writes update
// earlier keys so history gains depth, and each block also re-writes one
// contended key so some MVCC losers appear in the stream.
func buildTortureStream(f *fixture, blocks, txs int) []*blockstore.Block {
	f.t.Helper()
	out := make([]*blockstore.Block, 0, blocks)
	for bn := 0; bn < blocks; bn++ {
		envs := make([]blockstore.Envelope, 0, txs)
		for i := 0; i < txs; i++ {
			var key string
			if i%3 == 2 && bn > 0 {
				key = fmt.Sprintf("item-%03d-%d", bn-1, i) // update an old key
			} else {
				key = fmt.Sprintf("item-%03d-%d", bn, i)
			}
			args, err := json.Marshal(map[string]any{
				"key":      key,
				"checksum": fmt.Sprintf("sha256:%03d-%d", bn, i),
			})
			if err != nil {
				f.t.Fatal(err)
			}
			prop := f.propose(provenance.FnSet, string(args))
			resp, err := f.peer.ProcessProposal(prop)
			if err != nil {
				f.t.Fatalf("endorse block %d tx %d: %v", bn, i, err)
			}
			envs = append(envs, f.envelopeFor(prop, resp))
		}
		out = append(out, f.commitEnvs(envs...))
	}
	return out
}

// tearTail truncates channel "ch"'s block file inside its final record,
// simulating a crash that tore the last append.
func tearTail(t *testing.T, dir string, rng *rand.Rand) {
	t.Helper()
	tearTailAt(t, recovery.BlockFilePath(dir, "ch"), rng)
}

// tearTailAt is tearTail for an explicit block-file path.
func tearTailAt(t *testing.T, path string, rng *rand.Rand) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		return
	}
	// Records are "HPB2" + uvarint body length + body: walk to the last one.
	last := 0
	for off := 0; off < len(raw); {
		n, w := binary.Uvarint(raw[off+4:])
		last, off = off, off+4+w+int(n)
	}
	cut := last + rng.Intn(len(raw)-last)
	if err := os.Truncate(path, int64(cut)); err != nil {
		t.Fatal(err)
	}
}

// comparePeers requires got to be observably identical to want.
func comparePeers(t *testing.T, got, want *Peer, label string) {
	t.Helper()
	if g, w := got.Height(), want.Height(); g != w {
		t.Fatalf("%s: height = %d, want %d", label, g, w)
	}
	if g, w := committer.StateFingerprint(got.state), committer.StateFingerprint(want.state); g != w {
		t.Errorf("%s: state fingerprint = %s, want %s", label, g, w)
	}
	if g, w := got.history.Fingerprint(), want.history.Fingerprint(); g != w {
		t.Errorf("%s: history fingerprint = %s, want %s", label, g, w)
	}
	if g, w := tortureQuery(t, got), tortureQuery(t, want); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: rich-query results differ: %d vs %d rows", label, len(g), len(w))
	}
	if err := got.Ledger().VerifyChain(); err != nil {
		t.Errorf("%s: VerifyChain: %v", label, err)
	}
}

func TestTortureCrashRecovery(t *testing.T) {
	const (
		numBlocks = 24
		txsPerBlk = 3
		ckptEvery = 4
		rounds    = 5
	)
	f := newFixture(t)
	stream := buildTortureStream(f, numBlocks, txsPerBlk)
	defer f.peer.Stop()

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("round-%d", round), func(t *testing.T) {
			dir := t.TempDir()
			p := f.openDurable(dir, ckptEvery)

			// Kill at a randomized point mid-stream.
			kill := 1 + rng.Intn(numBlocks-1)
			for _, b := range stream[:kill] {
				p.CommitBlock(b)
			}
			p.Crash()
			if round%2 == 1 {
				tearTail(t, dir, rng) // power loss tore the final append
			}

			// Reopen from disk. The recovered height may trail the kill
			// point by the torn block, never more.
			p2 := f.openDurable(dir, ckptEvery)
			h := p2.Height()
			if h < uint64(kill-1) || h > uint64(kill) {
				t.Fatalf("recovered height = %d after kill at %d", h, kill)
			}
			if info := p2.Recovery(); h >= ckptEvery {
				if info.CheckpointHeight == 0 {
					t.Errorf("recovered without a checkpoint at height %d", h)
				}
				if info.CheckpointHeight+uint64(ckptEvery) < h {
					t.Errorf("replay tail longer than a checkpoint interval: ckpt %d, height %d",
						info.CheckpointHeight, h)
				}
			}

			// The tail of the stream the peer missed commits cleanly on
			// the recovered state…
			for _, b := range stream[h:] {
				p2.CommitBlock(b)
			}
			// …and the result is indistinguishable from the reference run.
			comparePeers(t, p2, f.peer, "after recovery + tail")
			if err := p2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			// A clean close leaves a final checkpoint: the next open
			// restores instantly, still at the reference fingerprint.
			p3 := f.openDurable(dir, ckptEvery)
			if info := p3.Recovery(); info.ReplayedBlocks != 0 || info.CheckpointHeight != uint64(numBlocks) {
				t.Errorf("reopen after clean close: %+v, want instant restore at %d", info, numBlocks)
			}
			comparePeers(t, p3, f.peer, "after clean close + reopen")
			if err := p3.Close(); err != nil {
				t.Fatalf("final Close: %v", err)
			}
		})
	}
}

func TestDurablePeerSurvivesCrashWithoutCheckpoint(t *testing.T) {
	// Kill before the first checkpoint interval: recovery must replay the
	// whole (short) chain from genesis.
	f := newFixture(t)
	stream := buildTortureStream(f, 3, 2)
	defer f.peer.Stop()

	dir := t.TempDir()
	p := f.openDurable(dir, 100) // interval never reached
	for _, b := range stream {
		p.CommitBlock(b)
	}
	p.Crash()

	p2 := f.openDurable(dir, 100)
	if info := p2.Recovery(); info.CheckpointHeight != 0 || info.ReplayedBlocks != 3 {
		t.Errorf("recovery info = %+v, want genesis replay of 3", info)
	}
	comparePeers(t, p2, f.peer, "genesis replay")
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
}
