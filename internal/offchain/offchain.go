// Package offchain implements HyperProv's off-chain data storage: the
// blockchain holds only provenance metadata, while payloads go to a
// pluggable store. The paper mounts an SSH file system (SSHFS) from a
// separate node; here the equivalent is a remote file server reached over
// TCP through a shaped link (latency + bandwidth), plus in-memory and
// local-directory stores for tests and single-machine runs. All stores are
// content-addressed by SHA-256, which is also the checksum recorded
// on-chain.
package offchain

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/hyperprov/hyperprov/internal/network"
)

// Errors returned by stores.
var (
	ErrNotFound         = errors.New("offchain: object not found")
	ErrChecksumMismatch = errors.New("offchain: data does not match checksum")
	ErrBadRef           = errors.New("offchain: malformed object reference")
)

// Checksum computes the canonical content checksum recorded on-chain.
func Checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// checksumOf is Checksum of the bytes written to h, a SHA-256.
func checksumOf(h hash.Hash) string {
	var sum [sha256.Size]byte
	return "sha256:" + hex.EncodeToString(h.Sum(sum[:0]))
}

// VerifyChecksum checks data against a checksum produced by Checksum; this
// is HyperProv's tamper-detection primitive for off-chain payloads.
func VerifyChecksum(data []byte, checksum string) error {
	if Checksum(data) != checksum {
		return ErrChecksumMismatch
	}
	return nil
}

// Store is the off-chain storage interface: content-addressed put/get.
type Store interface {
	// Put stores data and returns its location reference (a URI-style
	// string recorded in the on-chain provenance record).
	Put(data []byte) (ref string, err error)
	// Get retrieves the data for a reference.
	Get(ref string) ([]byte, error)
	// Close releases resources.
	Close() error
}

// Backing is what an object server keeps objects in. Write takes a payload
// as its size bytes come off the connection and stores nothing unless all
// of them arrive; Open hands back an object it has verified against its
// content address, with its size. MemStore and DirStore are both.
type Backing interface {
	Write(r io.Reader, size int64) (ref string, err error)
	Open(ref string) (io.ReadCloser, int64, error)
}

// refKey returns the content address ref names under scheme ("mem://",
// "file://"). It must be exactly what Checksum produces — "sha256:" and 64
// lowercase hex digits: a DirStore turns it into a file name under its
// root, and refs arrive from remote clients, so anything else is refused
// before any lookup or open.
func refKey(ref, scheme string) (string, error) {
	key, ok := strings.CutPrefix(ref, scheme)
	digits, isSHA := strings.CutPrefix(key, "sha256:")
	if !ok || !isSHA || len(digits) != 2*sha256.Size {
		return "", fmt.Errorf("%w: %q", ErrBadRef, ref)
	}
	for i := 0; i < len(digits); i++ {
		if c := digits[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("%w: %q", ErrBadRef, ref)
		}
	}
	return key, nil
}

// readAll reads an opened object whole and closes it: the Get of a store,
// over its Open.
func readAll(obj io.ReadCloser, size int64, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer obj.Close()
	data := make([]byte, size)
	if _, err := io.ReadFull(obj, data); err != nil {
		return nil, fmt.Errorf("offchain: read object: %w", err)
	}
	return data, nil
}

// MemStore is an in-memory store for tests and examples.
type MemStore struct {
	mu sync.RWMutex
	// data maps a content address to its object. A stored object is never
	// written again (Corrupt replaces it), so Open can serve it in place.
	data map[string][]byte
}

var _ Store = (*MemStore)(nil)

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{data: make(map[string][]byte)}
}

// Put stores a copy of data under its content hash.
func (m *MemStore) Put(data []byte) (string, error) {
	return m.Write(bytes.NewReader(data), int64(len(data)))
}

// Get retrieves by reference, verifies content integrity, and returns a
// copy the caller owns.
func (m *MemStore) Get(ref string) ([]byte, error) { return readAll(m.Open(ref)) }

// Write stores the size bytes read from r under their content hash. The
// object is filled as the bytes arrive (network.ReadAnnounced): a writer
// that announces more than it sends pins what it sent, not what it
// announced, and leaves nothing stored.
func (m *MemStore) Write(r io.Reader, size int64) (string, error) {
	if size < 0 || size > math.MaxInt {
		return "", fmt.Errorf("offchain: object of %d bytes", size)
	}
	obj, err := network.ReadAnnounced(r, int(size))
	if err != nil {
		return "", fmt.Errorf("offchain: write object: %w", err)
	}
	key := Checksum(obj)
	m.mu.Lock()
	m.data[key] = obj
	m.mu.Unlock()
	return "mem://" + key, nil
}

// memObject is an object MemStore opened: a reader over the stored bytes
// themselves, which never change once stored. The object server sends them
// from there.
type memObject struct {
	bytes.Reader
	data []byte
}

func (*memObject) Close() error { return nil }

// Open verifies the object behind ref and returns a reader over it.
func (m *MemStore) Open(ref string) (io.ReadCloser, int64, error) {
	key, err := refKey(ref, "mem://")
	if err != nil {
		return nil, 0, err
	}
	m.mu.RLock()
	data, found := m.data[key]
	m.mu.RUnlock()
	if !found {
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, ref)
	}
	if err := VerifyChecksum(data, key); err != nil {
		return nil, 0, err
	}
	obj := &memObject{data: data}
	obj.Reset(data)
	return obj, int64(len(data)), nil
}

// Corrupt flips a byte of the stored object — test hook for the paper's
// tamper-detection scenario (checksum mismatch on retrieval). The damaged
// object replaces the stored one: a reader already serving it is not
// changed under its feet.
func (m *MemStore) Corrupt(ref string) error {
	key, err := refKey(ref, "mem://")
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	data, found := m.data[key]
	if !found {
		return fmt.Errorf("%w: %q", ErrNotFound, ref)
	}
	if len(data) > 0 {
		data = bytes.Clone(data)
		data[0] ^= 0xFF
		m.data[key] = data
	}
	return nil
}

// Len returns the number of stored objects.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data)
}

// Close is a no-op.
func (m *MemStore) Close() error { return nil }

// DirStore stores objects as files under a directory — the shape of the
// paper's SSHFS mount seen from the client (each data item is a file).
type DirStore struct {
	root string
}

var _ Store = (*DirStore)(nil)

// putTmpPattern names in-flight Put temp files; they are invisible to Get
// (objects are addressed by their hex hash) and swept on open.
const putTmpPattern = ".put-*.tmp"

// NewDirStore creates (if needed) and uses dir as the object root. Temp
// files left behind by a Put cut short by a crash are swept: they were
// never renamed into place, so no reference can point at them.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("offchain: create root: %w", err)
	}
	if stale, err := filepath.Glob(filepath.Join(dir, putTmpPattern)); err == nil {
		for _, path := range stale {
			os.Remove(path)
		}
	}
	return &DirStore{root: dir}, nil
}

// path is the file holding the object at key, a key refKey accepted: its
// hex digits name the file.
func (d *DirStore) path(key string) string {
	return filepath.Join(d.root, strings.TrimPrefix(key, "sha256:"))
}

// Put writes data to a content-addressed file.
func (d *DirStore) Put(data []byte) (string, error) {
	return d.Write(bytes.NewReader(data), int64(len(data)))
}

// Get reads and verifies a content-addressed file.
func (d *DirStore) Get(ref string) ([]byte, error) { return readAll(d.Open(ref)) }

// Write streams the size bytes read from r into a content-addressed file,
// hashing them on the way. The write is atomic with the same discipline as
// the recovery checkpoints (temp file + fsync + rename + directory fsync):
// the content hash is the key clients record on-chain, so a crash or a
// writer that stops mid-store must never leave a truncated blob behind a
// valid hash — either the complete object is durably in place or nothing
// is.
func (d *DirStore) Write(r io.Reader, size int64) (string, error) {
	if size < 0 {
		return "", fmt.Errorf("offchain: object of %d bytes", size)
	}
	tmp, err := os.CreateTemp(d.root, putTmpPattern)
	if err != nil {
		return "", fmt.Errorf("offchain: temp object: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	h := sha256.New()
	n, err := io.Copy(io.MultiWriter(tmp, h), io.LimitReader(r, size))
	if err == nil && n < size {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		cleanup()
		return "", fmt.Errorf("offchain: write object: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return "", fmt.Errorf("offchain: sync object: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("offchain: close object: %w", err)
	}
	key := checksumOf(h)
	if err := os.Rename(tmpName, d.path(key)); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("offchain: publish object: %w", err)
	}
	syncDir(d.root)
	return "file://" + key, nil
}

// syncDir fsyncs a directory so a just-renamed object survives power loss.
// Best-effort, matching internal/recovery: some filesystems refuse
// directory fsync.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		f.Close()
	}
}

// Open verifies the file behind ref against its content address, then
// returns it, rewound, to be read.
func (d *DirStore) Open(ref string) (io.ReadCloser, int64, error) {
	key, err := refKey(ref, "file://")
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(d.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, ref)
		}
		return nil, 0, fmt.Errorf("offchain: open object: %w", err)
	}
	h := sha256.New()
	size, err := io.Copy(h, f)
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("offchain: read object: %w", err)
	}
	if checksumOf(h) != key {
		f.Close()
		return nil, 0, ErrChecksumMismatch
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("offchain: rewind object: %w", err)
	}
	return f, size, nil
}

// Close is a no-op.
func (d *DirStore) Close() error { return nil }
