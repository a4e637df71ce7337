package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// FileStore is a block store backed by an append-only file of encoded
// blocks, giving a peer's ledger copy durability across restarts — the
// role of Fabric's block files on each peer's disk. It has one write rule:
// Append writes the record and fsyncs it before it returns, so a block the
// store holds survives a process kill and an OS crash alike, at the cost of
// one fsync per block. A write or fsync that fails stops the store: every
// later Append returns that error, and reopening the file recovers to the
// last durable block.
type FileStore struct {
	mu     sync.Mutex
	mem    *Store
	f      *os.File
	path   string
	failed error
}

// OpenFileStore opens (or creates) the block file at path and loads all
// existing blocks, re-verifying the hash chain as it goes. A truncated final
// record (crash during append) is discarded so the store recovers to the
// last durable block; damage anywhere before the final record, a final
// record that parses but breaks the chain, or a file that does not begin
// with the record magic is corruption and fails the open with
// ErrCorruptFile, leaving the file untouched.
func OpenFileStore(path string) (*FileStore, error) {
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
	if len(raw) == 0 {
		// A new file's directory entry must be durable too, or a crash can
		// lose the file with every fsynced block in it.
		SyncDir(filepath.Dir(path))
	}
	return &FileStore{mem: mem, f: f, path: path}, nil
}

// SyncDir fsyncs a directory so a file just created or renamed in it
// survives power loss. Best-effort: some filesystems refuse directory
// fsync.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
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
// magic at a record boundary, a CRC failure on a complete record, a data
// hash that does not match the block's envelopes, or a chain break is
// corruption.
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
		// Disk is outside input, so the data hash is checked here, where
		// the block is read in: Append checks only sequence and linkage.
		err = b.VerifyData()
		if err == nil {
			err = mem.Append(b)
		}
		if err != nil {
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

// Append checks the block's sequence and linkage, writes its record, fsyncs
// the file, and only then adds the block to the store, so Height never
// counts a block that is not on stable storage. After a failed write or
// fsync the file's tail (and, past a failed fsync, the page cache) cannot be
// trusted: Append refuses every later block with the same error, and a
// reopen discards the torn tail. The block encodes into a pooled buffer
// (reusing each envelope's cached canonical bytes), so the steady-state
// append path allocates no per-block encode scratch.
func (s *FileStore) Append(b *Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if err := s.mem.follows(b); err != nil {
		return err
	}
	buf := codec.GetBuffer()
	buf.B = AppendBlock(buf.B, b)
	var hdr [len("HPB2") + binary.MaxVarintLen64]byte
	n := copy(hdr[:], v2Magic)
	n += binary.PutUvarint(hdr[n:], uint64(len(buf.B)))
	_, err := s.f.Write(hdr[:n])
	if err == nil {
		_, err = s.f.Write(buf.B)
	}
	buf.Release()
	if err == nil {
		err = s.f.Sync()
	}
	if err != nil {
		s.failed = fmt.Errorf("blockstore: append block %d to %s: %w", b.Header.Number, s.path, err)
		return s.failed
	}
	return s.mem.Append(b)
}

// Close closes the block file. Every appended block is already on stable
// storage, so there is nothing to flush; a store stopped by a failed append
// reports that failure (Err).
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Close(); err != nil {
		return err
	}
	return s.failed
}

// Err returns the write or fsync failure that stopped the store, or nil.
// Past it the file holds fewer blocks than were handed to Append.
func (s *FileStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Height returns the number of persisted blocks.
func (s *FileStore) Height() uint64 { return s.mem.Height() }

// LastHash returns the latest header hash.
func (s *FileStore) LastHash() []byte { return s.mem.LastHash() }

// GetByNumber returns the block with the given number.
func (s *FileStore) GetByNumber(n uint64) (*Block, error) { return s.mem.GetByNumber(n) }

// GetTx returns the envelope and validation code for a transaction id.
func (s *FileStore) GetTx(txID string) (*Envelope, ValidationCode, error) { return s.mem.GetTx(txID) }

// Locate returns where a transaction committed.
func (s *FileStore) Locate(txID string) (TxLocator, bool) { return s.mem.Locate(txID) }

// VerifyChain audits the whole persisted chain.
func (s *FileStore) VerifyChain() error { return s.mem.VerifyChain() }
