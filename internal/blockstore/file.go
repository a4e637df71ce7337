package blockstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"github.com/hyperprov/hyperprov/internal/codec"
)

// ErrCorruptFile is returned when the block file is damaged in a way a
// crash cannot explain: an undecodable record with more data after it, or a
// decodable block that breaks the hash chain. A crash during append can only
// tear the final record; anything else is bit rot or tampering and must not
// be silently truncated away.
var ErrCorruptFile = errors.New("blockstore: block file corrupt")

// v2Magic opens every block-file record: v2Magic + uvarint length + a
// canonical block encoding (itself CRC-32C framed).
var v2Magic = []byte("HPB2")

// maxV2Record bounds a record's announced length; anything larger is
// damage, not data (mirrors network.MaxFrame's hostile-length guard).
const maxV2Record = 1 << 31

// SyncPolicy selects when the FileStore forces appended blocks to stable
// storage (fsync).
type SyncPolicy int

const (
	// SyncOnClose flushes the userspace buffer on every append but fsyncs
	// only on explicit Sync and on Close. An OS crash can lose the most
	// recent blocks; a process crash cannot. This is the throughput-friendly
	// default for modeled networks and tests.
	SyncOnClose SyncPolicy = iota
	// SyncEachAppend fsyncs after every appended block, bounding loss on
	// power failure to the block being written — the policy for durable
	// edge peers, where pulling the plug is a routine event.
	SyncEachAppend
)

// FileStore is a block store backed by an append-only file of encoded
// blocks, giving a peer's ledger copy durability across restarts — the
// role of Fabric's block files on each peer's disk.
type FileStore struct {
	mu     sync.Mutex
	mem    *Store
	f      *os.File
	w      *bufio.Writer
	path   string
	policy SyncPolicy
}

// OpenFileStore opens (or creates) the block file at path with the default
// SyncOnClose policy. See OpenFileStoreWithPolicy.
func OpenFileStore(path string) (*FileStore, error) {
	return OpenFileStoreWithPolicy(path, SyncOnClose)
}

// OpenFileStoreWithPolicy opens (or creates) the block file at path and
// loads all existing blocks, re-verifying the hash chain as it goes. A
// truncated final record (crash during append) is discarded so the store
// recovers to the last durable block; damage anywhere before the final
// record, a final record that parses but breaks the chain, or a file that
// does not begin with the record magic is corruption and fails the open
// with ErrCorruptFile, leaving the file untouched.
func OpenFileStoreWithPolicy(path string, policy SyncPolicy) (*FileStore, error) {
	mem := NewStore()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockstore: open %s: %w", path, err)
	}
	// The store mirrors every block in memory anyway, so loading the raw
	// bytes up front costs nothing extra and gives exact byte offsets.
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blockstore: read %s: %w", path, err)
	}
	validBytes, err := loadV2(raw, mem, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop any trailing partial record so future appends start clean.
	if err := f.Truncate(validBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("blockstore: truncate %s: %w", path, err)
	}
	if _, err := f.Seek(validBytes, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("blockstore: seek %s: %w", path, err)
	}
	return &FileStore{mem: mem, f: f, w: bufio.NewWriter(f), path: path, policy: policy}, nil
}

// v2 record parse outcomes.
type recStatus int

const (
	recComplete recStatus = iota // blob holds a full record body
	recPartial                   // record extends past EOF: torn tail
	recBad                       // not a record boundary: damage
)

// parseV2Record examines the record at the head of rest. The uvarint
// length field is self-delimiting (a torn multi-byte uvarint always reads
// as incomplete, never as a smaller value), so "partial" versus "bad" is
// unambiguous: a crash can only leave a prefix of a record, anything else
// at a record boundary is damage.
func parseV2Record(rest []byte) (blob []byte, total int, status recStatus) {
	if len(rest) < len(v2Magic) {
		if bytes.HasPrefix(v2Magic, rest) {
			return nil, 0, recPartial
		}
		return nil, 0, recBad
	}
	if !bytes.HasPrefix(rest, v2Magic) {
		return nil, 0, recBad
	}
	n, consumed := binary.Uvarint(rest[len(v2Magic):])
	if consumed == 0 {
		return nil, 0, recPartial
	}
	if consumed < 0 || n > maxV2Record {
		return nil, 0, recBad
	}
	hdr := len(v2Magic) + consumed
	total = hdr + int(n)
	if len(rest) < total {
		return nil, 0, recPartial
	}
	return rest[hdr:total], total, recComplete
}

// loadV2 replays a v2 binary ledger into mem, returning the byte count of
// the valid prefix. Only the final record may be torn (including a
// zero-filled tail, which crashed filesystems can leave behind); a bad
// magic at a record boundary, a CRC failure on a complete record, or a
// chain break is corruption.
func loadV2(raw []byte, mem *Store, path string) (validBytes int64, err error) {
	for off := 0; off < len(raw); {
		rest := raw[off:]
		blob, total, status := parseV2Record(rest)
		switch status {
		case recPartial:
			return validBytes, nil // torn tail: keep the valid prefix
		case recBad:
			if allZero(rest) {
				// A crash while the filesystem extended the file can leave
				// a zero-filled tail; zeros are never a record, so treat
				// them as a torn tail rather than damage.
				return validBytes, nil
			}
			return 0, fmt.Errorf("%w: %s: bad record boundary after %d blocks",
				ErrCorruptFile, path, mem.Height())
		}
		b, err := UnmarshalBlock(blob)
		if err != nil {
			// The whole record is present (length field said so), so a torn
			// append cannot explain the failure — this is bit rot.
			return 0, fmt.Errorf("%w: %s: undecodable record after %d blocks: %v",
				ErrCorruptFile, path, mem.Height(), err)
		}
		if err := mem.Append(b); err != nil {
			return 0, fmt.Errorf("%w: %s at block %d: %v",
				ErrCorruptFile, path, b.Header.Number, err)
		}
		off += total
		validBytes = int64(off)
	}
	return validBytes, nil
}

// allZero reports whether p contains only zero bytes.
func allZero(p []byte) bool {
	for _, c := range p {
		if c != 0 {
			return false
		}
	}
	return true
}

// Append validates and appends the block, then persists it according to the
// store's sync policy. The block encodes into a pooled buffer
// (reusing each envelope's cached canonical bytes), so the steady-state
// append path allocates no per-block encode scratch.
func (s *FileStore) Append(b *Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mem.Append(b); err != nil {
		return err
	}
	buf := codec.GetBuffer()
	buf.B = AppendBlock(buf.B, b)
	var hdr [len("HPB2") + binary.MaxVarintLen64]byte
	n := copy(hdr[:], v2Magic)
	n += binary.PutUvarint(hdr[n:], uint64(len(buf.B)))
	if _, err := s.w.Write(hdr[:n]); err != nil {
		buf.Release()
		return fmt.Errorf("blockstore: append %s: %w", s.path, err)
	}
	if _, err := s.w.Write(buf.B); err != nil {
		buf.Release()
		return fmt.Errorf("blockstore: append %s: %w", s.path, err)
	}
	buf.Release()
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("blockstore: flush %s: %w", s.path, err)
	}
	if s.policy == SyncEachAppend {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("blockstore: sync %s: %w", s.path, err)
		}
	}
	return nil
}

// Sync flushes buffered writes to stable storage.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close flushes, fsyncs, and closes the block file.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// CloseNoFlush closes the file descriptor without the final flush or
// fsync — the programmatic stand-in for a process kill, used by
// crash-recovery tests and the recovery demo. Because Append flushes each
// line to the OS, nothing is lost in-process; what this models is dying
// without the clean-shutdown work (no final checkpoint, no fsync of OS
// caches). Tests emulate the physical-loss half — a torn final append —
// by truncating the file afterwards.
func (s *FileStore) CloseNoFlush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// Height returns the number of persisted blocks.
func (s *FileStore) Height() uint64 { return s.mem.Height() }

// LastHash returns the latest header hash.
func (s *FileStore) LastHash() []byte { return s.mem.LastHash() }

// GetByNumber returns the block with the given number.
func (s *FileStore) GetByNumber(n uint64) (*Block, error) { return s.mem.GetByNumber(n) }

// GetByHash returns the block with the given header hash.
func (s *FileStore) GetByHash(h []byte) (*Block, error) { return s.mem.GetByHash(h) }

// GetTx returns the envelope and validation code for a transaction id.
func (s *FileStore) GetTx(txID string) (*Envelope, ValidationCode, error) { return s.mem.GetTx(txID) }

// Locate returns where a transaction committed.
func (s *FileStore) Locate(txID string) (TxLocator, bool) { return s.mem.Locate(txID) }

// VerifyChain audits the whole persisted chain.
func (s *FileStore) VerifyChain() error { return s.mem.VerifyChain() }

// BlocksFrom returns all blocks with number >= from.
func (s *FileStore) BlocksFrom(from uint64) []*Block { return s.mem.BlocksFrom(from) }
