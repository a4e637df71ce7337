package committer

import (
	"testing"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// commitPrefix serially commits the first n blocks of stream onto a fresh
// ledger and returns it (the uninterrupted reference for replay tests).
func commitPrefix(t *testing.T, f *txFactory, stream []*blockstore.Block, n int) *ledger {
	t.Helper()
	l := newLedger()
	eng := NewSerial(l.config(f, 1))
	for _, b := range stream[:n] {
		if !eng.Submit(b) {
			t.Fatalf("reference rejected block %d", b.Header.Number)
		}
	}
	return l
}

func TestReplayReproducesCommittedState(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f) // adversarial: bad sigs, MVCC losers, dups
	ref := commitPrefix(t, f, stream, len(stream))

	// Replay the committed blocks (stored validation flags included) onto
	// fresh stores, as recovery does after loading the block file.
	state := statedb.New()
	history := historydb.New()
	if err := Replay(state, history, ref.blocks, 0); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got, want := StateFingerprint(state), StateFingerprint(ref.state); got != want {
		t.Errorf("replayed state fingerprint = %s, want %s", got, want)
	}
	if got, want := history.Fingerprint(), ref.history.Fingerprint(); got != want {
		t.Errorf("replayed history fingerprint = %s, want %s", got, want)
	}
	if got, want := state.Height(), ref.state.Height(); got != want {
		t.Errorf("replayed height = %v, want %v", got, want)
	}
}

func TestReplayTailFromSnapshot(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f)
	cut := len(stream) / 2
	ref := commitPrefix(t, f, stream, len(stream))
	prefix := commitPrefix(t, f, stream, cut)

	// Restore the mid-stream snapshot, then replay only the tail.
	state := statedb.New()
	state.Restore(prefix.state.Export(), prefix.state.Height())
	history := historydb.New()
	history.Restore(prefix.history.Snapshot())
	if err := Replay(state, history, ref.blocks, uint64(cut)); err != nil {
		t.Fatalf("Replay tail: %v", err)
	}
	if got, want := StateFingerprint(state), StateFingerprint(ref.state); got != want {
		t.Errorf("tail-replayed state fingerprint = %s, want %s", got, want)
	}
	if got, want := history.Fingerprint(), ref.history.Fingerprint(); got != want {
		t.Errorf("tail-replayed history fingerprint = %s, want %s", got, want)
	}
}

func TestReplayRejectsForeignPreState(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f)
	ref := commitPrefix(t, f, stream, len(stream))

	// Replaying the tail against a state that is NOT the pre-tail boundary
	// must fail loudly (height regression), never silently fork.
	state := statedb.New()
	state.Restore(ref.state.Export(), ref.state.Height()) // already at tip
	if err := Replay(state, nil, ref.blocks, 0); err == nil {
		t.Fatal("replay over already-reflected state succeeded")
	}
}

func TestCheckpointCapturesAtConfiguredBoundaries(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f)
	if len(stream) < 4 {
		t.Fatalf("stream too short: %d", len(stream))
	}

	for _, engine := range []string{"serial", "pipeline"} {
		t.Run(engine, func(t *testing.T) {
			var captures []Capture
			l := newLedger()
			cfg := l.config(f, 2)
			cfg.CheckpointEvery = 2
			cfg.OnCheckpoint = func(c Capture) { captures = append(captures, c) }
			var eng Committer
			if engine == "serial" {
				eng = NewSerial(cfg)
			} else {
				eng = New(cfg)
			}
			for _, b := range stream {
				eng.Submit(b)
			}
			eng.Sync()
			eng.Close()

			want := len(stream) / 2
			if len(captures) != want {
				t.Fatalf("captures = %d, want %d", len(captures), want)
			}
			for i, c := range captures {
				if c.Height != uint64(2*(i+1)) {
					t.Errorf("capture %d height = %d, want %d", i, c.Height, 2*(i+1))
				}
				// Every capture must equal an uninterrupted run of its
				// prefix — the consistency property recovery depends on.
				prefix := commitPrefix(t, f, stream, int(c.Height))
				if got, want := SnapshotFingerprint(c.State.Materialize()), StateFingerprint(prefix.state); got != want {
					t.Errorf("capture at height %d: fingerprint %s, want %s", c.Height, got, want)
				}
				if c.StateHeight != prefix.state.Height() {
					t.Errorf("capture at height %d: state height %v, want %v",
						c.Height, c.StateHeight, prefix.state.Height())
				}
			}
		})
	}
}
