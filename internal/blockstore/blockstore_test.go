package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func mkEnv(txID, fn string) Envelope {
	return Envelope{
		TxID:      txID,
		ChannelID: "provchannel",
		Chaincode: "hyperprov",
		Function:  fn,
		Args:      [][]byte{[]byte("key"), []byte("value")},
		Timestamp: time.Unix(1570000000, 0).UTC(),
	}
}

func mkChain(t *testing.T, nBlocks, txPerBlock int) *Store {
	t.Helper()
	s := NewStore()
	for i := 0; i < nBlocks; i++ {
		envs := make([]Envelope, txPerBlock)
		for j := range envs {
			envs[j] = mkEnv(fmt.Sprintf("tx-%d-%d", i, j), "set")
		}
		b := NewBlock(uint64(i), s.LastHash(), envs)
		b.TxValidation = make([]ValidationCode, txPerBlock)
		for j := range b.TxValidation {
			b.TxValidation[j] = TxValid
		}
		if err := s.Append(b); err != nil {
			t.Fatalf("Append block %d: %v", i, err)
		}
	}
	return s
}

func TestAppendAndRetrieve(t *testing.T) {
	s := mkChain(t, 5, 3)
	if got := s.Height(); got != 5 {
		t.Fatalf("Height = %d, want 5", got)
	}
	b2, err := s.GetByNumber(2)
	if err != nil {
		t.Fatalf("GetByNumber(2): %v", err)
	}
	if b2.Header.Number != 2 || len(b2.Envelopes) != 3 {
		t.Errorf("block 2 = number %d, %d envs", b2.Header.Number, len(b2.Envelopes))
	}
	if _, err := s.GetByNumber(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetByNumber(99) err = %v, want ErrNotFound", err)
	}
	// The store remembers the tip hash instead of rehashing the last header;
	// what it hands out is a copy.
	tip := s.LastHash()
	if last, _ := s.GetByNumber(s.Height() - 1); !bytes.Equal(tip, last.Header.Hash()) {
		t.Errorf("LastHash = %x, want the last header's hash", tip)
	}
	tip[0] ^= 0xff
	if bytes.Equal(tip, s.LastHash()) {
		t.Error("LastHash hands out the store's own tip")
	}
}

func TestGetTx(t *testing.T) {
	s := mkChain(t, 3, 2)
	env, code, err := s.GetTx("tx-1-1")
	if err != nil {
		t.Fatalf("GetTx: %v", err)
	}
	if env.TxID != "tx-1-1" || code != TxValid {
		t.Errorf("GetTx = %q code %v", env.TxID, code)
	}
	if _, _, err := s.GetTx("nope"); !errors.Is(err, ErrTxNotFound) {
		t.Errorf("GetTx(nope) err = %v, want ErrTxNotFound", err)
	}
}

func TestSequenceEnforced(t *testing.T) {
	s := mkChain(t, 2, 1)
	b := NewBlock(5, s.LastHash(), []Envelope{mkEnv("t", "set")})
	if err := s.Append(b); !errors.Is(err, ErrWrongSequence) {
		t.Errorf("out-of-sequence append err = %v, want ErrWrongSequence", err)
	}
}

func TestChainLinkageEnforced(t *testing.T) {
	s := mkChain(t, 2, 1)
	b := NewBlock(2, []byte("wrong previous hash"), []Envelope{mkEnv("t", "set")})
	if err := s.Append(b); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("bad-linkage append err = %v, want ErrBrokenChain", err)
	}
}

func TestTamperDetection(t *testing.T) {
	s := mkChain(t, 4, 2)
	if err := s.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain clean: %v", err)
	}
	// Tamper with a committed envelope in place: the block's data hash no
	// longer matches, so the audit must fail.
	b, err := s.GetByNumber(1)
	if err != nil {
		t.Fatal(err)
	}
	b.Envelopes[0].Args[1] = []byte("evil payload")
	if err := s.VerifyChain(); err == nil {
		t.Fatal("VerifyChain passed after tamper, want failure")
	}
}

func TestDataHashRejectsModifiedBlock(t *testing.T) {
	b := NewBlock(0, nil, []Envelope{mkEnv("a", "set"), mkEnv("b", "get")})
	if err := b.VerifyData(); err != nil {
		t.Fatalf("VerifyData clean: %v", err)
	}
	b.Envelopes[1].Function = "tampered"
	if err := b.VerifyData(); err == nil {
		t.Fatal("VerifyData passed after tamper")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	e := mkEnv("tx9", "set")
	e.Signature = []byte{9, 9}
	raw, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.TxID != e.TxID || got.Function != e.Function || !got.Timestamp.Equal(e.Timestamp) {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := UnmarshalEnvelope([]byte("garbage")); err == nil {
		t.Error("UnmarshalEnvelope(garbage) succeeded")
	}
}

func TestSignedBytesExcludesSignature(t *testing.T) {
	e := mkEnv("tx1", "set")
	before := e.SignedBytes()
	e.Signature = []byte("sig")
	after := e.SignedBytes()
	if !bytes.Equal(before, after) {
		t.Error("SignedBytes depends on the signature field")
	}
	e.Function = "other"
	if bytes.Equal(before, e.SignedBytes()) {
		t.Error("SignedBytes ignores envelope content")
	}
}

// TestEach: the by-number reader hands over blocks in order from its
// start, reads no further than the height at the call even when fn appends,
// and stops at fn's first error.
func TestEach(t *testing.T) {
	s := mkChain(t, 5, 1)
	var got []uint64
	collect := func(b *Block) error { got = append(got, b.Header.Number); return nil }
	if err := Each(s, 3, collect); err != nil || !slices.Equal(got, []uint64{3, 4}) {
		t.Errorf("Each(3) = %v, %v; want [3 4]", got, err)
	}
	got = nil
	if err := Each(s, 99, collect); err != nil || got != nil {
		t.Errorf("Each(99) = %v, %v; want nothing", got, err)
	}

	got = nil
	err := Each(s, 4, func(b *Block) error {
		got = append(got, b.Header.Number)
		next := NewBlock(s.Height(), s.LastHash(), []Envelope{mkEnv("late", "set")})
		return s.Append(next)
	})
	if err != nil || !slices.Equal(got, []uint64{4}) || s.Height() != 6 {
		t.Errorf("Each over a growing chain = %v, %v (height %d); want [4] and height 6", got, err, s.Height())
	}

	stop := errors.New("stop")
	got = nil
	err = Each(s, 0, func(b *Block) error {
		got = append(got, b.Header.Number)
		if b.Header.Number == 1 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || !slices.Equal(got, []uint64{0, 1}) {
		t.Errorf("Each stopping at block 1 = %v, %v; want [0 1] and the stop error", got, err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := NewBlock(0, nil, []Envelope{mkEnv("a", "set")})
	cp := b.Clone()
	cp.Envelopes[0].Function = "mutated"
	if b.Envelopes[0].Function == "mutated" {
		t.Error("Clone shares envelope storage")
	}
}

func TestValidationCodeString(t *testing.T) {
	if TxValid.String() != "VALID" || TxMVCCConflict.String() != "MVCC_READ_CONFLICT" {
		t.Error("unexpected ValidationCode strings")
	}
	if ValidationCode(42).String() != "code(42)" {
		t.Error("unknown code string")
	}
}

// Property: chains built from random blocks always verify, and flipping any
// single byte of any envelope arg breaks verification.
func TestQuickChainIntegrity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		n := rng.Intn(6) + 2
		for i := 0; i < n; i++ {
			txs := rng.Intn(3) + 1
			envs := make([]Envelope, txs)
			for j := range envs {
				payload := make([]byte, rng.Intn(64)+1)
				rng.Read(payload)
				envs[j] = Envelope{
					TxID:     fmt.Sprintf("tx-%d-%d-%d", seed, i, j),
					Function: "set",
					Args:     [][]byte{payload},
				}
			}
			b := NewBlock(uint64(i), s.LastHash(), envs)
			if err := s.Append(b); err != nil {
				return false
			}
		}
		if err := s.VerifyChain(); err != nil {
			return false
		}
		// Tamper one random byte.
		bn := uint64(rng.Intn(n))
		blk, err := s.GetByNumber(bn)
		if err != nil {
			return false
		}
		env := &blk.Envelopes[rng.Intn(len(blk.Envelopes))]
		env.Args[0][rng.Intn(len(env.Args[0]))] ^= 0xFF
		return s.VerifyChain() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
