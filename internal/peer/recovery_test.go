package peer

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/recovery"
	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/shim"
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
		Dir: dir, CheckpointEvery: every,
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

// A block file that fails under a running peer (here its descriptor is
// closed, so the next write fails as on a dead SD card) stops the ledger at
// its last durable block while the committer still applies later blocks'
// state. A clean Close must then report the failure and write no checkpoint
// of that state, and the next Open recovers to the durable height and
// commits on.
func TestFailedAppendThenCloseReopens(t *testing.T) {
	const durable = 4
	f := newFixture(t)
	stream := buildTortureStream(f, durable+2, 3)
	defer f.peer.Stop()

	dir := t.TempDir()
	p := f.openDurable(dir, 3) // checkpoint at 3, none at the durable height
	for _, b := range stream[:durable] {
		p.CommitBlock(b)
	}
	state, history := committer.StateFingerprint(p.state), p.history.Fingerprint()
	if err := p.file.Close(); err != nil {
		t.Fatal(err)
	}
	for _, b := range stream[durable:] {
		p.CommitBlock(b)
	}
	if h := p.Height(); h != durable {
		t.Fatalf("height after failed appends = %d, want %d", h, durable)
	}
	if err := p.Close(); err == nil {
		t.Fatal("Close after a failed append reported no error")
	}

	p2 := f.openDurable(dir, 3)
	if h := p2.Height(); h != durable {
		t.Fatalf("reopened height = %d, want %d", h, durable)
	}
	if info := p2.Recovery(); info.CheckpointHeight != 3 || info.ReplayedBlocks != 1 {
		t.Errorf("recovery info = %+v, want checkpoint 3 plus 1 replayed block", info)
	}
	if g := committer.StateFingerprint(p2.state); g != state {
		t.Errorf("reopened state fingerprint = %s, want %s", g, state)
	}
	if g := p2.history.Fingerprint(); g != history {
		t.Errorf("reopened history fingerprint = %s, want %s", g, history)
	}
	for _, b := range stream[durable:] {
		p2.CommitBlock(b)
	}
	comparePeers(t, p2, f.peer, "after reopen + tail")
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
}

// A durable peer's checkpoint cost is flat in chain length: with the
// default schedule, which follows the data, the bytes allocated per
// committed transaction over 1,024 blocks stay within 2× of those over 64.
// A fixed interval rewrote the whole state and history every 16 blocks, so
// they grew with the chain (8.3× here).
func TestCheckpointCostFlatInChainLength(t *testing.T) {
	const txs = 4
	blocks := 1024
	if raceEnabled {
		blocks = 64 // the schedule still runs beside the pipeline; the figures are not the program's
	}
	f := newFixture(t)
	stream := buildTortureStream(f, blocks, txs)
	defer f.peer.Stop()
	perTx := func(chain []*blockstore.Block) float64 {
		signer, err := f.ca.Enroll(fmt.Sprintf("peer-dur-%d", durableSeq.Add(1)), identity.RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		host, err := Open(Config{Name: "durable", Signer: signer, MSP: f.msp, Channels: []string{"ch"}, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		p := host.Channel("ch")
		if err := p.InstallChaincode(provenance.ChaincodeName, provenance.New(), endorser.SignedBy("Org1MSP")); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, b := range chain {
			p.DeliverBlock(b)
		}
		p.Sync()
		runtime.ReadMemStats(&after)
		if err := host.Close(); err != nil {
			t.Fatal(err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(txs*len(chain))
	}
	short, long := perTx(stream[:64]), perTx(stream)
	if raceEnabled {
		return
	}
	t.Logf("bytes allocated per transaction: %.0f over 64 blocks, %.0f over %d (%.1f×)", short, long, blocks, long/short)
	if long > 2*short {
		t.Errorf("bytes per transaction grew %.1f× from 64 to %d blocks, want at most 2×", long/short, blocks)
	}
}

// historyPayload is the peer's getHistory reply for key.
func historyPayload(t *testing.T, f *fixture, p *Peer, key string) []byte {
	t.Helper()
	resp, err := p.Query(provenance.ChaincodeName, provenance.FnGetHistory, [][]byte{[]byte(key)}, f.client.Serialize())
	if err != nil || resp.Status != shim.OK {
		t.Fatalf("getHistory %q: %v %s", key, err, resp.Message)
	}
	return resp.Payload
}

// A key's getHistory reply — versions resolved from the chain, a delete
// among them — is byte-equal on the live peer, on a durable peer reopened
// from a checkpoint plus a replayed tail, and on one that replays from
// genesis because its checkpoints are in a format that carried history
// (HPCKPT1) or rich-query indexes (HPCKPT2).
func TestRecoveredHistoryPayloadsMatchLive(t *testing.T) {
	const key = "item-000-2" // written in blocks 0 and 1
	f := newFixture(t)
	stream := buildTortureStream(f, 9, 3)
	defer f.peer.Stop()
	for _, fn := range []string{provenance.FnDelete, provenance.FnSet} {
		arg := key
		if fn == provenance.FnSet {
			arg = `{"key":"` + key + `","checksum":"sha256:again"}`
		}
		prop := f.propose(fn, arg)
		resp, err := f.peer.ProcessProposal(prop)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		env := f.envelopeFor(prop, resp)
		stream = append(stream, f.commitEnvs(env))
		if code := f.committed(env.TxID).Code; code != blockstore.TxValid {
			t.Fatalf("%s: %s", fn, code)
		}
	}
	want := historyPayload(t, f, f.peer, key)
	if n := strings.Count(string(want), `"txId"`); n != 4 || !strings.Contains(string(want), `"isDelete":true`) {
		t.Fatalf("live history holds %d versions: %s", n, want)
	}

	dir := t.TempDir()
	p := f.openDurable(dir, 4)
	for _, b := range stream {
		p.CommitBlock(b)
	}
	if got := historyPayload(t, f, p, key); string(got) != string(want) {
		t.Errorf("durable peer:\n got %s\nwant %s", got, want)
	}
	p.Crash()

	p = f.openDurable(dir, 4)
	if info := p.Recovery(); info.CheckpointHeight != 8 || info.ReplayedBlocks != 3 {
		t.Fatalf("reopen: %+v, want checkpoint 8 and 3 replayed", info)
	}
	if got := historyPayload(t, f, p, key); string(got) != string(want) {
		t.Errorf("checkpoint plus tail:\n got %s\nwant %s", got, want)
	}
	p.Crash()

	// Relabel every checkpoint with an older format's magic (CRC
	// recomputed): each is refused, and the peer replays from genesis.
	for _, magic := range []string{"HPCKPT1\n", "HPCKPT2\n"} {
		relabelCheckpoints(t, dir, magic)
		p = f.openDurable(dir, 4)
		if info := p.Recovery(); info.CheckpointHeight != 0 || info.ReplayedBlocks != len(stream) {
			t.Fatalf("reopen over %q files: %+v, want a genesis replay of %d", magic, info, len(stream))
		}
		if got := historyPayload(t, f, p, key); string(got) != string(want) {
			t.Errorf("genesis replay:\n got %s\nwant %s", got, want)
		}
		comparePeers(t, p, f.peer, "genesis replay")
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// relabelCheckpoints rewrites every checkpoint of channel "ch" under dir
// with magic in place of its own and the CRC recomputed: what a peer of an
// older format left on disk.
func relabelCheckpoints(t *testing.T, dir, magic string) {
	t.Helper()
	ckDir := recovery.CheckpointDir(dir, "ch")
	files, err := os.ReadDir(ckDir)
	if err != nil || len(files) == 0 {
		t.Fatalf("checkpoints: %v %d", err, len(files))
	}
	for _, fi := range files {
		path := filepath.Join(ckDir, fi.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		old := codec.AppendChecksum(append([]byte(magic), raw[len(magic):len(raw)-4]...), 0)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// ownerKeys is the keys of the records p's getByOwner returns for owner.
func ownerKeys(t *testing.T, f *fixture, p *Peer, owner string) []string {
	t.Helper()
	resp, err := p.Query(provenance.ChaincodeName, provenance.FnGetByOwner, [][]byte{[]byte(owner)}, f.client.Serialize())
	if err != nil || resp.Status != shim.OK {
		t.Fatalf("getByOwner: %v %s", err, resp.Message)
	}
	var recs []struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(resp.Payload, &recs); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	return keys
}

// A checkpoint holds no index: a peer reopened from one plus a tail builds
// its indexes from the recovered documents when its chaincode is installed,
// and they serve queries. A by-owner equality query is answered by an exact
// index range, reading no document, with the keys the never-crashed
// reference peer returns.
func TestRecoveredIndexesServeQueries(t *testing.T) {
	f := newFixture(t)
	stream := buildTortureStream(f, 10, 3)
	defer f.peer.Stop()
	dir := t.TempDir()
	p := f.openDurable(dir, 4)
	for _, b := range stream {
		p.CommitBlock(b)
	}
	p.Crash()

	p = f.openDurable(dir, 4)
	defer p.Close()
	if info := p.Recovery(); info.CheckpointHeight != 8 || info.ReplayedBlocks != 2 {
		t.Fatalf("reopen: %+v, want checkpoint 8 and 2 replayed", info)
	}
	vv, ok := f.peer.state.Get("item-000-0")
	if !ok {
		t.Fatal("reference peer lacks item-000-0")
	}
	var rec struct {
		Owner string `json:"owner"`
	}
	if err := json.Unmarshal(vv.Value, &rec); err != nil || rec.Owner == "" {
		t.Fatalf("record owner %q: %v", rec.Owner, err)
	}
	exact := p.Metrics().Counter(metrics.StateQueriesExactRange)
	decoded := p.Metrics().Counter(metrics.StateQueryDocsDecoded)
	exact0, decoded0 := exact.Value(), decoded.Value()
	got := ownerKeys(t, f, p, rec.Owner)
	if n := exact.Value() - exact0; n != 1 {
		t.Errorf("by-owner query took %d exact index ranges, want 1", n)
	}
	if n := decoded.Value() - decoded0; n != 0 {
		t.Errorf("by-owner query read %d documents, want 0", n)
	}
	if want := ownerKeys(t, f, f.peer, rec.Owner); len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("recovered peer's by-owner keys %v, want %v", got, want)
	}
}

// slowAppend is a ledger whose appends take a while, so a history read
// racing the commit pipeline has time to meet a block on its way in.
type slowAppend struct{ *blockstore.Store }

func (s slowAppend) Append(b *blockstore.Block) error {
	time.Sleep(200 * time.Microsecond)
	return s.Store.Append(b)
}

// History reads resolve every locator while the pipeline commits: the
// committer records a block's locators only after appending it, so a
// reader racing it never meets a locator whose block is not in the store.
func TestHistoryReadsDuringPipelinedCommits(t *testing.T) {
	f := newFixture(t)
	stream := buildTortureStream(f, 24, 3)
	defer f.peer.Stop()
	var keys []string
	for _, b := range stream {
		for i := range b.Envelopes {
			rws, err := rwset.Unmarshal(b.Envelopes[i].RWSet)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range rws.Writes {
				keys = append(keys, w.Key)
			}
		}
	}
	signer, err := f.ca.Enroll("peer-history-race", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	blocks := slowAppend{blockstore.NewStore()}
	p := newPeer(Config{Name: "racer", Signer: signer, MSP: f.msp}, "ch", statedb.New(), historydb.NewIndex(blocks), blocks)
	defer p.Stop()
	if err := p.InstallChaincode(provenance.ChaincodeName, provenance.New(), endorser.SignedBy("Org1MSP")); err != nil {
		t.Fatal(err)
	}
	stub := shim.NewStub(shim.Config{TxID: "history-reader", History: p.history})

	done := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, key := range keys {
					select {
					case <-done:
						return
					default:
					}
					entries, err := stub.GetHistoryForKey(key)
					if err != nil {
						t.Errorf("GetHistoryForKey: %v", err)
						return
					}
					for _, e := range entries {
						if e.TxID == "" || (e.Value == nil && !e.IsDelete) {
							t.Errorf("unresolved locator %+v of %q", e, key)
							return
						}
					}
					reads.Add(1)
				}
			}
		}()
	}
	for _, b := range stream {
		p.DeliverBlock(b)
	}
	p.Sync()
	close(done)
	wg.Wait()
	if got, want := p.history.Fingerprint(), f.peer.history.Fingerprint(); got != want {
		t.Errorf("history fingerprint = %s, want %s", got, want)
	}
	t.Logf("%d history reads during %d pipelined blocks", reads.Load(), len(stream))
}
