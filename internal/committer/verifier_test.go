package committer

import (
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// TestPrevalidateWarmCacheSkipsSignatureWork pins the redelivery fast path:
// prevalidating the same envelope twice (gossip redelivery, gateway-checked
// then commit-checked) does every ECDSA verification exactly once. The
// modeled Exec.Verify charge rides the same onMiss hook, so "no new misses"
// is also "no new hardware charge". The cold pass is the other half of the
// contract: a committing peer that has seen nothing executes one real ECDSA
// verification for the creator and one per endorsement, no fewer.
func TestPrevalidateWarmCacheSkipsSignatureWork(t *testing.T) {
	f := newTxFactory(t)
	v := f.verifier()
	env := f.envelope(f.txID(), writeSet("k"), nil)

	_, verifies0 := identity.ECDSAOps()
	if res := v.Prevalidate(&env); res.Code != blockstore.TxValid {
		t.Fatalf("first prevalidate: %v", res.Code)
	}
	_, verifiesCold := identity.ECDSAOps()
	if want := uint64(1 + len(env.Endorsements)); verifiesCold-verifies0 != want {
		t.Fatalf("cold pass executed %d ECDSA verifications, want %d (creator + every endorsement)",
			verifiesCold-verifies0, want)
	}
	cold := f.msp.VerifyCache().Stats()
	if cold.Misses < 2 { // creator signature + one endorsement
		t.Fatalf("cold pass recorded %d misses, want >= 2", cold.Misses)
	}

	if res := v.Prevalidate(&env); res.Code != blockstore.TxValid {
		t.Fatalf("warm prevalidate: %v", res.Code)
	}
	warm := f.msp.VerifyCache().Stats()
	if warm.Misses != cold.Misses {
		t.Fatalf("warm pass performed %d new verifications, want 0", warm.Misses-cold.Misses)
	}
	if warm.Hits < cold.Hits+2 {
		t.Fatalf("warm pass hit %d times, want >= 2", warm.Hits-cold.Hits)
	}
	if _, verifiesWarm := identity.ECDSAOps(); verifiesWarm != verifiesCold {
		t.Fatalf("warm pass executed %d ECDSA verifications, want 0", verifiesWarm-verifiesCold)
	}

	// A tampered copy must still fail: the cache keys on exact bytes.
	bad := f.envelope(f.txID(), writeSet("k2"), nil)
	bad.Function = "tampered-after-signing"
	if res := v.Prevalidate(&bad); res.Code != blockstore.TxBadSignature {
		t.Fatalf("tampered envelope: %v, want TxBadSignature", res.Code)
	}
}

// The modeled per-transaction commit cost is charged once per envelope in
// stage 1, whatever the envelope's verdict — bad signatures, malformed
// rwsets and MVCC losers included — on both engines, and never by Replay,
// which runs no stage 1.
func TestCommitChargesOneOverheadPerEnvelope(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f)
	// Only CommitOverhead costs anything, so every nanosecond of busy time
	// below is a commit charge.
	prof := device.Profile{Name: "commit-only", Cores: 1, CommitOverhead: 4 * time.Millisecond}
	for _, tc := range []struct {
		name string
		mk   func(Config) Committer
	}{
		{"serial", func(cfg Config) Committer { return NewSerial(cfg) }},
		{"pipeline", func(cfg Config) Committer { return New(cfg) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exec := device.NewExecutor(prof, device.NopClock{}, 1)
			l := newLedger()
			cfg := l.config(f, 4)
			v := f.verifier()
			v.Exec = exec
			cfg.Verifier = v
			c := tc.mk(cfg)
			defer c.Close()
			for _, b := range stream {
				exec.ResetBusy()
				if !c.Submit(b) {
					t.Fatalf("block %d rejected", b.Header.Number)
				}
				c.Sync()
				if got, want := exec.BusyTime(), time.Duration(len(b.Envelopes))*prof.CommitOverhead; got != want {
					t.Errorf("block %d (%d envelopes) charged %v, want %v", b.Header.Number, len(b.Envelopes), got, want)
				}
			}
			exec.ResetBusy()
			if err := Replay(statedb.New(), historydb.New(), l.blocks, 0); err != nil {
				t.Fatal(err)
			}
			if got := exec.BusyTime(); got != 0 {
				t.Errorf("Replay charged %v, want 0", got)
			}
		})
	}
}

// Every endorsement an envelope carries is verified at commit, and one that
// fails fails the transaction, even beside a valid one that satisfies the
// policy alone. The gateway attaches only endorsements it verified; the
// committer does not trust that, on either engine.
func TestOneBadEndorsementFailsPolicy(t *testing.T) {
	f := newTxFactory(t)
	withFlipped := func(env *blockstore.Envelope) {
		e := env.Endorsements[0]
		e.Signature = append([]byte(nil), e.Signature...)
		e.Signature[len(e.Signature)-1] ^= 1
		env.Endorsements = append(env.Endorsements, e)
	}
	for _, tc := range []struct {
		name   string
		commit func(*ledger, *blockstore.Block)
	}{
		{"serial", func(l *ledger, b *blockstore.Block) { NewSerial(l.config(f, 0)).Submit(b) }},
		{"pipeline", func(l *ledger, b *blockstore.Block) {
			p := New(l.config(f, 4))
			defer p.Close()
			p.Submit(b)
			p.Sync()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := blockstore.NewBlock(0, nil, []blockstore.Envelope{
				f.envelope(f.txID(), writeSet("ok"), nil),
				f.envelope(f.txID(), writeSet("bad"), withFlipped),
			})
			l := newLedger()
			tc.commit(l, b)
			got, err := l.blocks.GetByNumber(0)
			if err != nil {
				t.Fatal(err)
			}
			want := []blockstore.ValidationCode{blockstore.TxValid, blockstore.TxEndorsementPolicyFailure}
			for i, c := range want {
				if got.TxValidation[i] != c {
					t.Errorf("tx %d = %s, want %s", i, got.TxValidation[i], c)
				}
			}
		})
	}
}
