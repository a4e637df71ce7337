package blockstore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by the store.
var (
	ErrNotFound      = errors.New("blockstore: block not found")
	ErrTxNotFound    = errors.New("blockstore: transaction not found")
	ErrBrokenChain   = errors.New("blockstore: hash chain broken")
	ErrWrongSequence = errors.New("blockstore: block number out of sequence")
)

// TxLocator points at a transaction inside the chain.
type TxLocator struct {
	BlockNum uint64
	TxNum    int
	Code     ValidationCode
}

// BlockStore is the ledger interface the committer and peer depend on. The
// in-memory Store and the durable FileStore both implement it, which is the
// seam that lets a peer run either volatile (tests, modeled networks) or
// with its ledger copy on device storage (the paper's edge deployments).
type BlockStore interface {
	// Append checks sequence and linkage, then appends. It does not re-hash
	// the block's data: a block is checked once where it enters the process
	// (the committer's admission, the file loader), and VerifyChain audits
	// the chain afterwards.
	Append(b *Block) error
	// Height returns the number of blocks in the chain.
	Height() uint64
	// LastHash returns the latest header hash (nil for an empty chain).
	LastHash() []byte
	// GetByNumber returns the block with the given number.
	GetByNumber(n uint64) (*Block, error)
	// GetTx returns the envelope and validation code for a transaction id.
	GetTx(txID string) (*Envelope, ValidationCode, error)
	// Locate returns where a transaction committed.
	Locate(txID string) (TxLocator, bool)
	// VerifyChain audits the whole chain.
	VerifyChain() error
}

// Compile-time interface checks.
var (
	_ BlockStore = (*Store)(nil)
	_ BlockStore = (*FileStore)(nil)
)

// Store is an append-only, hash-chained block store for one channel.
type Store struct {
	mu     sync.RWMutex
	blocks []*Block
	tip    [sha256.Size]byte    // hash of the latest header
	byTxID map[string]TxLocator // txid -> location
}

// NewStore creates an empty block store.
func NewStore() *Store {
	return &Store{byTxID: make(map[string]TxLocator)}
}

// Append checks sequence and chain linkage, then appends the block. It does
// not check the data hash (see BlockStore.Append). The block is expected to
// already carry validation flags.
func (s *Store) Append(b *Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkNext(b); err != nil {
		return err
	}
	s.blocks = append(s.blocks, b)
	s.tip = b.Header.sum()
	for i := range b.Envelopes {
		if _, dup := s.byTxID[b.Envelopes[i].TxID]; dup {
			continue // a txID's first occurrence is the one that counts
		}
		code := TxValid
		if i < len(b.TxValidation) {
			code = b.TxValidation[i]
		}
		s.byTxID[b.Envelopes[i].TxID] = TxLocator{BlockNum: b.Header.Number, TxNum: i, Code: code}
	}
	return nil
}

// follows reports whether Append would accept b, without appending it.
func (s *Store) follows(b *Block) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.checkNext(b)
}

// checkNext checks that b is the chain's next block: its number is the height
// and its previous hash the tip. The caller holds s.mu.
func (s *Store) checkNext(b *Block) error {
	want := uint64(len(s.blocks))
	if b.Header.Number != want {
		return fmt.Errorf("%w: got %d, want %d", ErrWrongSequence, b.Header.Number, want)
	}
	if want > 0 && !bytes.Equal(b.Header.PreviousHash, s.tip[:]) {
		return fmt.Errorf("%w: block %d previous hash mismatch", ErrBrokenChain, b.Header.Number)
	}
	return nil
}

// Height returns the number of blocks in the chain.
func (s *Store) Height() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.blocks))
}

// LastHash returns the hash of the latest block header, or nil for an empty
// chain (the genesis block links to nil).
func (s *Store) LastHash() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.blocks) == 0 {
		return nil
	}
	tip := s.tip
	return tip[:]
}

// GetByNumber returns the block with the given number.
func (s *Store) GetByNumber(n uint64) (*Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n >= uint64(len(s.blocks)) {
		return nil, fmt.Errorf("%w: number %d (height %d)", ErrNotFound, n, len(s.blocks))
	}
	return s.blocks[n], nil
}

// Locate returns where a transaction committed (block number, index, and
// validation code) without materializing the envelope: what a commit-wait
// looks for.
func (s *Store) Locate(txID string) (TxLocator, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.byTxID[txID]
	return loc, ok
}

// GetTx returns the envelope and validation code for a transaction id. This
// backs HyperProv's CheckTxn operator.
func (s *Store) GetTx(txID string) (*Envelope, ValidationCode, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.byTxID[txID]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrTxNotFound, txID)
	}
	return &s.blocks[loc.BlockNum].Envelopes[loc.TxNum], loc.Code, nil
}

// VerifyChain re-checks the whole hash chain and every block's data hash.
// This is the ledger-integrity audit HyperProv exposes.
func (s *Store) VerifyChain() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var prev []byte
	for i, b := range s.blocks {
		if b.Header.Number != uint64(i) {
			return fmt.Errorf("%w: block %d has number %d", ErrWrongSequence, i, b.Header.Number)
		}
		if i > 0 && !bytes.Equal(b.Header.PreviousHash, prev) {
			return fmt.Errorf("%w: at block %d", ErrBrokenChain, i)
		}
		if err := b.VerifyData(); err != nil {
			return err
		}
		prev = b.Header.Hash()
	}
	return nil
}

// Each hands fn the blocks of s numbered from up to the height at the call,
// in order, and stops at fn's first error. It holds no lock of the store's
// between blocks — each block is one GetByNumber — so fn may block (a
// network write, a full commit queue) without stalling appends, and a caller
// streams a long tail without ever holding it.
func Each(s BlockStore, from uint64, fn func(*Block) error) error {
	for n, h := from, s.Height(); n < h; n++ {
		b, err := s.GetByNumber(n)
		if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}
