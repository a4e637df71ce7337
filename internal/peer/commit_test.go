package peer

import (
	"testing"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/metrics"
)

// Edge-case coverage for the pipelined commit path: empty blocks,
// all-invalid blocks, duplicate txIDs inside one block, and listeners that
// register after the transaction already committed.

func TestCommitEmptyBlock(t *testing.T) {
	f := newFixture(t)
	f.commitEnvs() // block 0 with zero transactions
	if h := f.peer.Height(); h != 1 {
		t.Fatalf("height = %d, want 1", h)
	}
	if w := f.peer.committer.Persisted().Load(); w != 1 {
		t.Fatalf("watermark = %d, want 1", w)
	}
	if got := f.peer.Metrics().Counter(metrics.BlocksCommitted).Value(); got != 1 {
		t.Errorf("blocks_committed = %d, want 1", got)
	}
	if err := f.peer.Ledger().VerifyChain(); err != nil {
		t.Errorf("VerifyChain: %v", err)
	}
}

func TestCommitAllInvalidBlock(t *testing.T) {
	f := newFixture(t)
	prop := f.propose(InitFunction)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	env := f.envelopeFor(prop, resp)
	env.Function = "tampered-after-signing" // breaks the creator signature
	b := f.commitEnvs(env)

	if h := f.peer.Height(); h != 1 {
		t.Fatalf("height = %d, want 1", h)
	}
	got, err := f.peer.Ledger().GetByNumber(b.Header.Number)
	if err != nil {
		t.Fatal(err)
	}
	if got.TxValidation[0] != blockstore.TxBadSignature {
		t.Errorf("code = %s, want BAD_SIGNATURE", got.TxValidation[0])
	}
	if n := f.peer.Metrics().Counter(metrics.TxInvalidated).Value(); n != 1 {
		t.Errorf("tx_invalidated = %d, want 1", n)
	}
	if n := f.peer.Metrics().Counter(metrics.TxValidated).Value(); n != 0 {
		t.Errorf("tx_validated = %d, want 0", n)
	}
}

func TestDuplicateTxIDWithinBlock(t *testing.T) {
	f := newFixture(t)
	propInit := f.propose(InitFunction)
	respInit, err := f.peer.ProcessProposal(propInit)
	if err != nil {
		t.Fatal(err)
	}
	f.commitEnvs(f.envelopeFor(propInit, respInit))

	prop := f.propose(provenance.FnSet, `{"key":"dup-key","checksum":"c"}`)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	env := f.envelopeFor(prop, resp)
	b := f.commitEnvs(env, env) // the same envelope (and txID) twice

	got, err := f.peer.Ledger().GetByNumber(b.Header.Number)
	if err != nil {
		t.Fatal(err)
	}
	// The first copy wins; the second loses MVCC against the first's write.
	if got.TxValidation[0] != blockstore.TxValid {
		t.Errorf("first copy = %s, want VALID", got.TxValidation[0])
	}
	if got.TxValidation[1] != blockstore.TxMVCCConflict {
		t.Errorf("second copy = %s, want MVCC_READ_CONFLICT", got.TxValidation[1])
	}
	// A commit-wait sees the first copy's verdict.
	if loc := f.committed(env.TxID); loc.Code != blockstore.TxValid || loc.TxNum != 0 {
		t.Errorf("commit-wait = %+v, want VALID at tx 0", loc)
	}
}

// A commit-wait that begins after its transaction committed returns at once
// with the block and code — it does not wait for another block.
func TestWaitAfterCommit(t *testing.T) {
	f := newFixture(t)
	prop := f.propose(InitFunction)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		t.Fatal(err)
	}
	env := f.envelopeFor(prop, resp)
	f.commitEnvs(env)

	stop := make(chan struct{})
	close(stop) // no time at all to wait
	loc, ok := f.peer.WaitTx(env.TxID, stop)
	if !ok || loc.Code != blockstore.TxValid || loc.BlockNum != 0 {
		t.Errorf("WaitTx = %+v, %v; want VALID at block 0 at once", loc, ok)
	}
}
