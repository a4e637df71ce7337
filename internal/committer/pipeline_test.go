package committer

import (
	"reflect"
	"sync"
	"testing"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// TestPipelineDedupAndOrdering: duplicate and out-of-order submissions are
// dropped, concurrent submitters (ordering stream vs gossip) commit each
// height exactly once.
func TestPipelineDedupAndOrdering(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f)
	l := newLedger()
	pipe := New(l.config(f, 2))
	defer pipe.Close()

	// Out-of-order: block 1 before block 0.
	if pipe.Submit(stream[1]) {
		t.Fatal("accepted out-of-order block")
	}
	// Two goroutines race the same stream; every height must commit once.
	var wg sync.WaitGroup
	accepted := make([]int, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, b := range stream {
				if pipe.Submit(b) {
					accepted[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	pipe.Sync()
	if got := accepted[0] + accepted[1]; got != len(stream) {
		t.Errorf("accepted %d blocks total, want %d", got, len(stream))
	}
	if h := l.blocks.Height(); h != uint64(len(stream)) {
		t.Errorf("height = %d, want %d", h, len(stream))
	}
	if w := pipe.Persisted().Load(); w != uint64(len(stream)) {
		t.Errorf("watermark = %d, want %d", w, len(stream))
	}
	// Replays of already-committed heights are dropped.
	if pipe.Submit(stream[0]) {
		t.Error("accepted replayed block")
	}
}

// TestPipelineSyncWatermark: after Submit returns the block may not be
// persisted yet, but after Sync it must be — state, history, and block
// store all reflect it.
func TestPipelineSyncWatermark(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f)
	l := newLedger()
	pipe := New(l.config(f, 2))
	defer pipe.Close()
	for _, b := range stream {
		pipe.Submit(b)
	}
	pipe.Sync()
	if h := l.blocks.Height(); h != uint64(len(stream)) {
		t.Fatalf("height after Sync = %d, want %d", h, len(stream))
	}
	if n := l.history.Versions("a"); n != 2 { // write in block 0, delete in block 5
		t.Errorf("history versions of a = %d, want 2", n)
	}
}

// TestPipelineCloseIdempotent: Close drains in-flight work, is callable
// twice, and Submit afterwards is rejected.
func TestPipelineCloseIdempotent(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f)
	l := newLedger()
	pipe := New(l.config(f, 2))
	for _, b := range stream {
		pipe.Submit(b)
	}
	pipe.Close()
	pipe.Close()
	if h := l.blocks.Height(); h != uint64(len(stream)) {
		t.Errorf("height after Close = %d, want %d", h, len(stream))
	}
	if pipe.Submit(stream[0]) {
		t.Error("Submit accepted after Close")
	}
	pipe.Sync() // must not hang or panic on a closed pipeline
}

// TestTamperedBlocksRejectedAtAdmission: a block whose data hash or
// previous-hash linkage fails is rejected before any stage runs — state is
// untouched, the height is not consumed, and the genuine block at that
// height still commits afterwards (a byzantine gossip delivery cannot fork
// state from the ledger or wedge the peer).
func TestTamperedBlocksRejectedAtAdmission(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f)
	for _, eng := range []struct {
		name string
		mk   func(*ledger) Committer
	}{
		{"serial", func(l *ledger) Committer { return NewSerial(l.config(f, 1)) }},
		{"pipeline", func(l *ledger) Committer { return New(l.config(f, 4)) }},
	} {
		t.Run(eng.name, func(t *testing.T) {
			l := newLedger()
			c := eng.mk(l)
			defer c.Close()
			c.Submit(stream[0])
			c.Sync()
			before := StateFingerprint(l.state)

			// Tampered data: envelope swapped after the header was built.
			tampered := stream[1].Clone()
			tampered.Envelopes[0] = stream[2].Envelopes[0]
			if c.Submit(tampered) {
				t.Fatal("accepted block with broken data hash")
			}
			// Tampered linkage: valid data hash, wrong previous hash.
			badPrev, err := blockstore.NewBlock(1, []byte("bogus"), stream[1].Envelopes)
			if err != nil {
				t.Fatal(err)
			}
			if c.Submit(badPrev) {
				t.Fatal("accepted block with broken previous-hash linkage")
			}
			c.Sync()
			if got := StateFingerprint(l.state); got != before {
				t.Error("rejected block mutated state")
			}
			// The genuine block at the same height still commits.
			if !c.Submit(stream[1]) {
				t.Fatal("genuine block rejected after tampered delivery")
			}
			c.Sync()
			if h := l.blocks.Height(); h != 2 {
				t.Errorf("height = %d, want 2", h)
			}
		})
	}
}

// TestPipelineEmptyAndAllInvalidBlocks: an empty block and a block whose
// every transaction fails validation both advance the chain without
// touching state.
func TestPipelineEmptyAndAllInvalidBlocks(t *testing.T) {
	f := newTxFactory(t)
	l := newLedger()
	pipe := New(l.config(f, 2))
	defer pipe.Close()

	empty, err := blockstore.NewBlock(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Submit(empty)
	pipe.Sync()
	before := StateFingerprint(l.state)

	bad := f.envelope(f.txID(), writeSet("x"), nil)
	bad.Function = "tampered"
	noEnd := f.envelope(f.txID(), writeSet("y"), func(env *blockstore.Envelope) {
		env.Endorsements = nil
	})
	invalid, err := blockstore.NewBlock(1, empty.Header.Hash(),
		[]blockstore.Envelope{bad, noEnd})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Submit(invalid)
	pipe.Sync()

	if h := l.blocks.Height(); h != 2 {
		t.Fatalf("height = %d, want 2", h)
	}
	if after := StateFingerprint(l.state); after != before {
		t.Error("all-invalid block mutated state")
	}
	b, err := l.blocks.GetByNumber(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range b.TxValidation {
		if c == blockstore.TxValid {
			t.Errorf("tx %d marked valid in all-invalid block", i)
		}
	}
}

// TestSharedBlockKeepsPerPeerVerdicts: committers shadow the ordered block
// instead of cloning it, so two peers committing the same *Block share its
// envelopes — and nothing else. With one peer's state seeded so that a
// transaction of the stream is an MVCC conflict there only, each ledger
// records its own verdicts and reaches the state the serial engine reaches
// from the same seed on a deep copy of the stream; the ordered blocks stay
// unannotated.
func TestSharedBlockKeepsPerPeerVerdicts(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f) // block 1's "first" reads key d as absent

	seeds := []map[string]statedb.VersionedValue{
		nil,
		{"d": {Value: []byte("here first")}},
	}
	ledgers := make([]*ledger, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		ledgers[i] = newLedger()
		ledgers[i].state.Restore(seed, statedb.Version{})
		wg.Add(1)
		go func(l *ledger) {
			defer wg.Done()
			pipe := New(l.config(f, 2))
			defer pipe.Close()
			for _, b := range stream {
				if !pipe.Submit(b) {
					t.Errorf("rejected shared block %d", b.Header.Number)
				}
			}
			pipe.Sync()
		}(ledgers[i])
	}
	wg.Wait()

	for i, seed := range seeds {
		oracle := newLedger()
		oracle.state.Restore(seed, statedb.Version{})
		serial := NewSerial(oracle.config(f, 1))
		for _, b := range stream {
			serial.Submit(b.Clone())
		}
		if got, want := StateFingerprint(ledgers[i].state), StateFingerprint(oracle.state); got != want {
			t.Errorf("peer %d: state fingerprint %s, serial engine on a private copy %s", i, got, want)
		}
		for _, ordered := range stream {
			n := ordered.Header.Number
			got, _ := ledgers[i].blocks.GetByNumber(n)
			want, _ := oracle.blocks.GetByNumber(n)
			if !reflect.DeepEqual(got.TxValidation, want.TxValidation) {
				t.Errorf("peer %d block %d: verdicts %v, serial engine %v", i, n, got.TxValidation, want.TxValidation)
			}
			if got == ordered || len(ordered.Envelopes) > 0 && &got.Envelopes[0] != &ordered.Envelopes[0] {
				t.Errorf("peer %d block %d: want a shadow of the ordered block sharing its envelopes", i, n)
			}
		}
		if err := ledgers[i].blocks.VerifyChain(); err != nil {
			t.Errorf("peer %d chain: %v", i, err)
		}
	}
	a, _ := ledgers[0].blocks.GetByNumber(1)
	b, _ := ledgers[1].blocks.GetByNumber(1)
	if a.TxValidation[1] != blockstore.TxValid || b.TxValidation[1] != blockstore.TxMVCCConflict {
		t.Errorf("block 1 tx 1: unseeded peer %s, seeded peer %s; want VALID and MVCC_READ_CONFLICT",
			a.TxValidation[1], b.TxValidation[1])
	}
	for _, ordered := range stream {
		if ordered.TxValidation != nil {
			t.Errorf("ordered block %d was annotated: %v", ordered.Header.Number, ordered.TxValidation)
		}
	}
}
