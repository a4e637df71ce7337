package committer

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// txFactory builds signed envelopes the validation pipeline accepts (or
// rejects, when deliberately broken).
type txFactory struct {
	t        testing.TB
	msp      *identity.MSP
	client   *identity.SigningIdentity
	endorser *identity.SigningIdentity
	policy   endorser.Policy
	nextTx   int
}

func newTxFactory(t testing.TB) *txFactory {
	t.Helper()
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	client, err := ca.Enroll("client0", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	peerID, err := ca.Enroll("peer0", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	return &txFactory{
		t:        t,
		msp:      identity.NewMSP(ca),
		client:   client,
		endorser: peerID,
		policy:   endorser.SignedBy("Org1MSP"),
	}
}

// verifier returns a stage-1 validator over the factory's MSP and policy.
func (f *txFactory) verifier() *EnvelopeVerifier {
	return &EnvelopeVerifier{
		MSP: f.msp,
		Policy: func(cc string) (endorser.Policy, bool) {
			if cc != "cc" {
				return nil, false
			}
			return f.policy, true
		},
	}
}

// ledger is one committer's backing stores.
type ledger struct {
	state   *statedb.Store
	history *historydb.DB
	blocks  *blockstore.Store
}

func newLedger() *ledger {
	blocks := blockstore.NewStore()
	return &ledger{state: statedb.New(), history: historydb.NewIndex(blocks), blocks: blocks}
}

func (l *ledger) config(f *txFactory, workers int) Config {
	return Config{
		State:    l.state,
		History:  l.history,
		Blocks:   l.blocks,
		Verifier: f.verifier(),
		Workers:  workers,
	}
}

// envelope builds a fully signed envelope carrying rws. mutate, when
// non-nil, runs between endorsement signing and client signing (tampering
// after that invalidates the client signature instead).
func (f *txFactory) envelope(txID string, rws *rwset.ReadWriteSet, mutate func(*blockstore.Envelope)) blockstore.Envelope {
	f.t.Helper()
	rwsBytes := rws.Marshal()
	resp := &endorser.Response{
		TxID:     txID,
		Status:   shim.OK,
		RWSet:    rwsBytes,
		Endorser: f.endorser.Serialize(),
	}
	endSig, err := f.endorser.Sign(resp.SignedBytes())
	if err != nil {
		f.t.Fatal(err)
	}
	env := blockstore.Envelope{
		TxID:      txID,
		ChannelID: "ch",
		Chaincode: "cc",
		Function:  "set",
		Creator:   f.client.Serialize(),
		Timestamp: time.Unix(1700000000, 0).UTC(),
		RWSet:     rwsBytes,
		Endorsements: []blockstore.Endorsement{
			{Endorser: resp.Endorser, Signature: endSig},
		},
	}
	if mutate != nil {
		mutate(&env)
	}
	sig, err := f.client.Sign(env.SignedBytes())
	if err != nil {
		f.t.Fatal(err)
	}
	env.Signature = sig
	return env
}

// write returns an rwset with one write per key (value derived from key).
func writeSet(keys ...string) *rwset.ReadWriteSet {
	rws := &rwset.ReadWriteSet{}
	for _, k := range keys {
		rws.Writes = append(rws.Writes, rwset.Write{Key: k, Value: []byte("v-" + k)})
	}
	return rws
}

func (f *txFactory) txID() string {
	f.nextTx++
	return fmt.Sprintf("tx-%04d", f.nextTx)
}

// chain builds one chained block per envelope list, numbered from 0.
func chain(t testing.TB, blocks ...[]blockstore.Envelope) []*blockstore.Block {
	t.Helper()
	out := make([]*blockstore.Block, 0, len(blocks))
	var prev []byte
	for _, envs := range blocks {
		b := blockstore.NewBlock(uint64(len(out)), prev, envs)
		out = append(out, b)
		prev = b.Header.Hash()
	}
	return out
}

// buildStream assembles the shared adversarial block stream: valid writes,
// MVCC conflicts, bad signatures, policy failures, malformed rwsets, an
// empty block, deletes, and a duplicate txID — every verdict the validator
// can hand out.
func buildStream(t testing.TB, f *txFactory) []*blockstore.Block {
	t.Helper()
	var blocks [][]blockstore.Envelope
	add := func(envs ...blockstore.Envelope) { blocks = append(blocks, envs) }

	// Block 0: plain valid writes.
	add(
		f.envelope(f.txID(), writeSet("a", "b"), nil),
		f.envelope(f.txID(), writeSet("c"), nil),
	)
	// Block 1: an MVCC loser — reads "a" as absent though block 0 created
	// it — plus an intra-block conflict pair on "d".
	staleRead := &rwset.ReadWriteSet{
		Reads:  []rwset.Read{{Key: "a", Version: nil}},
		Writes: []rwset.Write{{Key: "a", Value: []byte("stale")}},
	}
	first := &rwset.ReadWriteSet{
		Reads:  []rwset.Read{{Key: "d", Version: nil}},
		Writes: []rwset.Write{{Key: "d", Value: []byte("first")}},
	}
	second := &rwset.ReadWriteSet{
		Reads:  []rwset.Read{{Key: "d", Version: nil}},
		Writes: []rwset.Write{{Key: "d", Value: []byte("second")}},
	}
	add(
		f.envelope(f.txID(), staleRead, nil),
		f.envelope(f.txID(), first, nil),
		f.envelope(f.txID(), second, nil),
	)
	// Block 2: every prevalidation failure mode.
	badSig := f.envelope(f.txID(), writeSet("e"), nil)
	badSig.Function = "tampered-after-signing"
	noEndorse := f.envelope(f.txID(), writeSet("f"), func(env *blockstore.Envelope) {
		env.Endorsements = nil
	})
	malformed := f.envelope(f.txID(), writeSet("g"), func(env *blockstore.Envelope) {
		env.RWSet = []byte("not an rwset")
	})
	unknownCC := f.envelope(f.txID(), writeSet("h"), func(env *blockstore.Envelope) {
		env.Chaincode = "ghost"
	})
	add(badSig, noEndorse, malformed, unknownCC, f.envelope(f.txID(), writeSet("i"), nil))
	// Block 3: empty.
	add()
	// Block 4: duplicate txID — identical envelope twice; the second loses
	// MVCC because the first's write lands in blockWrites.
	dupID := f.txID()
	dupSet := &rwset.ReadWriteSet{
		Reads:  []rwset.Read{{Key: "dup", Version: nil}},
		Writes: []rwset.Write{{Key: "dup", Value: []byte("dup")}},
	}
	dup := f.envelope(dupID, dupSet, nil)
	add(dup, dup)
	// Block 5: deletes and overwrites of live keys.
	del := &rwset.ReadWriteSet{Writes: []rwset.Write{
		{Key: "a", IsDelete: true},
		{Key: "b", Value: []byte("b-v2")},
	}}
	add(f.envelope(f.txID(), del, nil))
	return chain(t, blocks...)
}

// buildContendedStream is the hot-key stream: wide blocks where many
// transactions fight over a handful of keys beside independent traffic,
// range scans racing writers inside their bounds, and a long write-write
// chain next to a fan of independent readers.
func buildContendedStream(t testing.TB, f *txFactory) []*blockstore.Block {
	t.Helper()
	// Block 0: seed a key range the later phantom readers scan.
	seed := &rwset.ReadWriteSet{}
	for i := 0; i < 8; i++ {
		seed.Writes = append(seed.Writes, rwset.Write{
			Key: fmt.Sprintf("r%d", i), Value: []byte("seed"),
		})
	}
	b0 := []blockstore.Envelope{f.envelope(f.txID(), seed, nil)}

	// Block 1: 16 transactions, 4 hot keys, read-modify-write — each hot
	// key's first claimant wins, the rest lose MVCC; 8 cold writers ride
	// along untouched.
	var b1 []blockstore.Envelope
	for i := 0; i < 16; i++ {
		hot := fmt.Sprintf("hot%d", i%4)
		b1 = append(b1, f.envelope(f.txID(), &rwset.ReadWriteSet{
			Reads:  []rwset.Read{{Key: hot, Version: nil}},
			Writes: []rwset.Write{{Key: hot, Value: []byte(fmt.Sprintf("w%d", i))}},
		}, nil))
	}
	for i := 0; i < 8; i++ {
		b1 = append(b1, f.envelope(f.txID(), writeSet(fmt.Sprintf("cold%d", i)), nil))
	}

	// Block 2: tx0 updates r2; tx1 scans [r0,r5) — the earlier-in-block
	// write to r2 is an MVCC conflict for the scan. tx2 scans [r5,) with no
	// earlier in-block writer and stays valid; tx3 then updates r6 inside
	// tx2's bounds — a LATER writer, which must not invalidate tx2.
	b2 := []blockstore.Envelope{
		f.envelope(f.txID(), &rwset.ReadWriteSet{
			Writes: []rwset.Write{{Key: "r2", Value: []byte("bump")}},
		}, nil),
		f.envelope(f.txID(), &rwset.ReadWriteSet{
			RangeReads: []rwset.RangeRead{{StartKey: "r0", EndKey: "r5", Keys: []string{"r0", "r1", "r2", "r3", "r4"}}},
			Writes:     []rwset.Write{{Key: "scan-a", Value: []byte("x")}},
		}, nil),
		f.envelope(f.txID(), &rwset.ReadWriteSet{
			RangeReads: []rwset.RangeRead{{StartKey: "r5", EndKey: "", Keys: []string{"r5", "r6", "r7"}}},
			Writes:     []rwset.Write{{Key: "scan-b", Value: []byte("y")}},
		}, nil),
		f.envelope(f.txID(), &rwset.ReadWriteSet{
			Writes: []rwset.Write{{Key: "r6", Value: []byte("late")}},
		}, nil),
	}

	// Block 3: a write-write chain on one key plus a fan of independent
	// readers of a cold key.
	var b3 []blockstore.Envelope
	for i := 0; i < 6; i++ {
		b3 = append(b3, f.envelope(f.txID(), &rwset.ReadWriteSet{
			Writes: []rwset.Write{{Key: "chain", Value: []byte(fmt.Sprintf("link%d", i))}},
		}, nil))
	}
	for i := 0; i < 6; i++ {
		b3 = append(b3, f.envelope(f.txID(), &rwset.ReadWriteSet{
			Reads:  []rwset.Read{{Key: "cold0", Version: &statedb.Version{BlockNum: 1, TxNum: 16}}},
			Writes: []rwset.Write{{Key: fmt.Sprintf("fan%d", i), Value: []byte("z")}},
		}, nil))
	}
	return chain(t, b0, b1, b2, b3)
}

// codesOf returns every block's validation codes, in block order.
func codesOf(t *testing.T, blocks *blockstore.Store) [][]blockstore.ValidationCode {
	t.Helper()
	out := make([][]blockstore.ValidationCode, blocks.Height())
	for n := range out {
		b, err := blocks.GetByNumber(uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		out[n] = b.TxValidation
	}
	return out
}

// TestSerialAndPipelineEquivalent is the contract test: every stream must
// yield identical validation codes, identical final state, and identical
// history through the serial engine, the pipeline, and Replay of the
// serial engine's stored blocks. Replay keeps each stored failure code and
// fails on any stored-valid transaction its walk would not pass, so its
// success is the codes check. verdicts pins chosen blocks' codes, so
// equivalence cannot degrade into "every engine equally wrong".
func TestSerialAndPipelineEquivalent(t *testing.T) {
	f := newTxFactory(t)
	valid, conflict := blockstore.TxValid, blockstore.TxMVCCConflict
	hotBlock := make([]blockstore.ValidationCode, 24)
	for i := range hotBlock {
		hotBlock[i] = valid
		if i >= 4 && i < 16 { // every hot-key claimant after the first
			hotBlock[i] = conflict
		}
	}
	for _, tc := range []struct {
		name     string
		stream   []*blockstore.Block
		verdicts map[uint64][]blockstore.ValidationCode
	}{
		// MVCC losers, bad signatures, malformed rwsets, duplicate txIDs,
		// deletes; TestStreamVerdicts pins its codes.
		{name: "adversarial", stream: buildStream(t, f)},
		{name: "contended", stream: buildContendedStream(t, f), verdicts: map[uint64][]blockstore.ValidationCode{
			1: hotBlock,
			2: {valid, conflict, valid, valid},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assertEquivalent(t, f, tc.stream, tc.verdicts)
		})
	}
}

// TestParallelMVCCEdgeCases runs the one-block corner shapes a parallel
// MVCC scheduler would get wrong through the same serial/pipeline/replay
// contract, one at a time.
func TestParallelMVCCEdgeCases(t *testing.T) {
	valid, conflict := blockstore.TxValid, blockstore.TxMVCCConflict
	for _, tc := range []struct {
		name     string
		build    func(f *txFactory) []blockstore.Envelope
		verdicts []blockstore.ValidationCode
	}{
		{
			// A transaction that reads and writes one key conflicts with
			// the earlier ones, never with itself.
			name: "read-modify-write-same-key",
			build: func(f *txFactory) []blockstore.Envelope {
				var envs []blockstore.Envelope
				for i := 0; i < 5; i++ {
					envs = append(envs, f.envelope(f.txID(), &rwset.ReadWriteSet{
						Reads:  []rwset.Read{{Key: "rmw", Version: nil}},
						Writes: []rwset.Write{{Key: "rmw", Value: []byte(fmt.Sprint(i))}},
					}, nil))
				}
				return envs
			},
			verdicts: []blockstore.ValidationCode{valid, conflict, conflict, conflict, conflict},
		},
		{
			name: "write-only-disjoint",
			build: func(f *txFactory) []blockstore.Envelope {
				var envs []blockstore.Envelope
				for i := 0; i < 12; i++ {
					envs = append(envs, f.envelope(f.txID(), writeSet(fmt.Sprintf("w%d", i)), nil))
				}
				return envs
			},
		},
		{
			// Write-only transactions on one key: every one valid.
			name: "write-only-same-key",
			build: func(f *txFactory) []blockstore.Envelope {
				var envs []blockstore.Envelope
				for i := 0; i < 5; i++ {
					envs = append(envs, f.envelope(f.txID(), &rwset.ReadWriteSet{
						Writes: []rwset.Write{{Key: "shared", Value: []byte(fmt.Sprint(i))}},
					}, nil))
				}
				return envs
			},
		},
		{
			// tx 0 writes ten keys that every later transaction reads.
			name: "star-around-tx0",
			build: func(f *txFactory) []blockstore.Envelope {
				hub := &rwset.ReadWriteSet{}
				for i := 0; i < 10; i++ {
					hub.Writes = append(hub.Writes, rwset.Write{Key: fmt.Sprintf("s%d", i), Value: []byte("hub")})
				}
				envs := []blockstore.Envelope{f.envelope(f.txID(), hub, nil)}
				for i := 0; i < 10; i++ {
					envs = append(envs, f.envelope(f.txID(), &rwset.ReadWriteSet{
						Reads:  []rwset.Read{{Key: fmt.Sprintf("s%d", i), Version: nil}},
						Writes: []rwset.Write{{Key: fmt.Sprintf("spoke%d", i), Value: []byte("x")}},
					}, nil))
				}
				return envs
			},
		},
		{
			// A range read validates against pre-block state: a later
			// writer inside its bounds is no phantom.
			name: "range-read-before-writer",
			build: func(f *txFactory) []blockstore.Envelope {
				return []blockstore.Envelope{
					f.envelope(f.txID(), &rwset.ReadWriteSet{
						RangeReads: []rwset.RangeRead{{StartKey: "p", EndKey: "q"}},
						Writes:     []rwset.Write{{Key: "reader-mark", Value: []byte("x")}},
					}, nil),
					f.envelope(f.txID(), writeSet("p5"), nil),
				}
			},
			verdicts: []blockstore.ValidationCode{valid, valid},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newTxFactory(t)
			var verdicts map[uint64][]blockstore.ValidationCode
			if tc.verdicts != nil {
				verdicts = map[uint64][]blockstore.ValidationCode{0: tc.verdicts}
			}
			assertEquivalent(t, f, chain(t, tc.build(f)), verdicts)
		})
	}
}

// assertEquivalent runs the stream through the serial engine, the
// pipeline, and Replay of the serial engine's stored blocks, and checks
// that all three agree on codes, state and history. verdicts pins chosen
// blocks' codes.
func assertEquivalent(t *testing.T, f *txFactory, stream []*blockstore.Block, verdicts map[uint64][]blockstore.ValidationCode) {
	t.Helper()
	serial, pipe := newLedger(), newLedger()
	runStream(t, NewSerial(serial.config(f, 0)), stream)
	runStream(t, New(pipe.config(f, 4)), stream)
	replayed := newLedger()
	if err := Replay(replayed.state, replayed.history, serial.blocks, 0); err != nil {
		t.Fatalf("Replay: %v", err)
	}

	codes := codesOf(t, serial.blocks)
	if got := codesOf(t, pipe.blocks); !reflect.DeepEqual(got, codes) {
		t.Errorf("pipeline codes %v, serial %v", got, codes)
	}
	for n, want := range verdicts {
		if !reflect.DeepEqual(codes[n], want) {
			t.Errorf("block %d codes %v, want %v", n, codes[n], want)
		}
	}
	for _, other := range []struct {
		name string
		l    *ledger
	}{{"pipeline", pipe}, {"replay", replayed}} {
		if got, want := StateFingerprint(other.l.state), StateFingerprint(serial.state); got != want {
			t.Errorf("%s state fingerprint %s, serial %s", other.name, got, want)
		}
		if got, want := other.l.history.Fingerprint(), serial.history.Fingerprint(); got != want {
			t.Errorf("%s history fingerprint %s, serial %s", other.name, got, want)
		}
		if got, want := other.l.state.Height(), serial.state.Height(); got != want {
			t.Errorf("%s state height %v, serial %v", other.name, got, want)
		}
	}
	if err := pipe.blocks.VerifyChain(); err != nil {
		t.Errorf("pipeline chain: %v", err)
	}
}

// runStream drives a committer over the stream, syncs it and closes it.
func runStream(t *testing.T, c Committer, stream []*blockstore.Block) {
	t.Helper()
	for _, b := range stream {
		if !c.Submit(b) {
			t.Fatalf("committer rejected block %d", b.Header.Number)
		}
	}
	c.Sync()
	c.Close()
}

// TestStreamVerdicts pins the exact validation codes of the adversarial
// stream, so equivalence can never degrade into "both engines equally
// wrong in a new way" without a test failing.
func TestStreamVerdicts(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f)
	l := newLedger()
	pipe := New(l.config(f, 4))
	defer pipe.Close()
	for _, b := range stream {
		pipe.Submit(b)
	}
	pipe.Sync()

	want := map[uint64][]blockstore.ValidationCode{
		0: {blockstore.TxValid, blockstore.TxValid},
		1: {blockstore.TxMVCCConflict, blockstore.TxValid, blockstore.TxMVCCConflict},
		2: {blockstore.TxBadSignature, blockstore.TxEndorsementPolicyFailure,
			blockstore.TxMalformed, blockstore.TxMalformed, blockstore.TxValid},
		3: {},
		4: {blockstore.TxValid, blockstore.TxMVCCConflict},
		5: {blockstore.TxValid},
	}
	for n, codes := range want {
		b, err := l.blocks.GetByNumber(n)
		if err != nil {
			t.Fatalf("block %d: %v", n, err)
		}
		if len(b.TxValidation) != len(codes) {
			t.Fatalf("block %d has %d codes, want %d", n, len(b.TxValidation), len(codes))
		}
		for i, c := range codes {
			if b.TxValidation[i] != c {
				t.Errorf("block %d tx %d = %s, want %s", n, i, b.TxValidation[i], c)
			}
		}
	}
	// Deletes applied: "a" gone, "b" overwritten.
	if _, ok := l.state.Get("a"); ok {
		t.Error("key a should be deleted")
	}
	if vv, ok := l.state.Get("b"); !ok || string(vv.Value) != "b-v2" {
		t.Errorf("key b = %q, want b-v2", vv.Value)
	}
}
