// Package statedb implements the versioned world-state key-value store that
// backs each peer's ledger, mirroring Fabric's state database (LevelDB
// flavour). Every committed value carries the (block, txNum) version used by
// MVCC validation.
//
// The store is sharded: point reads and writes hash (FNV-1a) onto N
// lock-striped shards, so the hot paths — endorsement reads, MVCC version
// checks, batch apply — never contend on one global lock. Ordered access
// (range scans, composite-key queries) is served by a copy-on-write sorted
// key index (keyIndex), so scans are streaming iterators with O(log n)
// seek and early termination instead of a full-map materialize-and-sort.
// Height-stamped snapshots (Store.Snapshot) give readers a consistent view
// at a batch boundary without blocking ApplyUpdates; see snapshot.go.
package statedb

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Version identifies the transaction that last wrote a key.
type Version struct {
	BlockNum uint64 `json:"blockNum"`
	TxNum    uint64 `json:"txNum"`
}

// Compare returns -1, 0, or 1 as v is ordered before, equal to, or after o.
func (v Version) Compare(o Version) int {
	switch {
	case v.BlockNum < o.BlockNum:
		return -1
	case v.BlockNum > o.BlockNum:
		return 1
	case v.TxNum < o.TxNum:
		return -1
	case v.TxNum > o.TxNum:
		return 1
	default:
		return 0
	}
}

// String renders the version as "block:tx".
func (v Version) String() string { return fmt.Sprintf("%d:%d", v.BlockNum, v.TxNum) }

// VersionedValue is a value plus the version of the tx that wrote it. The
// JSON tags serve snapshot serialization by external tooling and tests;
// durable checkpoints use recovery's binary codec, not this form.
type VersionedValue struct {
	Value   []byte  `json:"value,omitempty"`
	Version Version `json:"version"`
}

// KV is one key with its committed versioned value, as yielded by iterators.
type KV struct {
	Key     string
	Value   []byte
	Version Version
}

// compositeKeySep separates the object type and attributes of composite
// keys. U+0000 keeps composite keys out of the plain-key namespace, exactly
// as Fabric does.
const compositeKeySep = "\x00"

// plainKeyFloor is the smallest key outside the composite-key namespace:
// every composite key starts with U+0000, so clamping a plain range scan's
// lower bound to "\x01" excludes the whole namespace with a single bound
// check instead of a per-key substring scan.
const plainKeyFloor = "\x01"

// Errors returned by this package.
var (
	ErrEmptyKey          = errors.New("statedb: empty key")
	ErrInvalidComposite  = errors.New("statedb: invalid composite key")
	ErrStaleCommitHeight = errors.New("statedb: commit height not monotonically increasing")
)

// shard is one lock stripe of the store's key-value data.
type shard struct {
	mu   sync.RWMutex
	data map[string]VersionedValue
}

// Store is a thread-safe versioned KV store for one channel on one peer.
// The zero value is not usable; call New or NewSharded.
//
// Concurrency model: point operations take only their shard's lock. Batch
// apply (ApplyUpdates) and Restore are writers; snapshot creation briefly
// synchronizes with them so every snapshot sits exactly at a batch
// boundary. Readers holding a Snapshot never block a subsequent apply —
// the apply preserves overwritten values into the snapshot's overlay
// (copy-on-write) instead of waiting.
type Store struct {
	shards []shard

	// applyMu serializes writers (ApplyUpdates, Restore) and orders
	// snapshot creation against them; point reads never touch it.
	applyMu sync.RWMutex

	height atomic.Pointer[Version]
	index  atomic.Pointer[keyIndex]

	snapMu sync.Mutex
	snaps  map[*storeSnapshot]struct{}

	metrics atomic.Pointer[storeMetrics]
}

// maxShards caps the stripe count; past this, stripes only add footprint.
const maxShards = 256

// New creates an empty state store with one shard per available CPU.
func New() *Store { return NewSharded(0) }

// NewSharded creates an empty state store with n lock-striped shards;
// n <= 0 means GOMAXPROCS.
func NewSharded(n int) *Store {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxShards {
		n = maxShards
	}
	s := &Store{
		shards: make([]shard, n),
		snaps:  make(map[*storeSnapshot]struct{}),
	}
	for i := range s.shards {
		s.shards[i].data = make(map[string]VersionedValue)
	}
	s.index.Store(emptyKeyIndex)
	s.height.Store(&Version{})
	return s
}

// shardFor hashes key (FNV-1a) onto its shard.
func (s *Store) shardFor(key string) *shard { return &s.shards[s.shardIndex(key)] }

// Get returns the committed value and version for key. ok is false if the
// key is absent (or has been deleted). Only the key's shard is locked.
func (s *Store) Get(key string) (VersionedValue, bool) {
	m := s.metrics.Load()
	if m == nil {
		sh := s.shardFor(key)
		sh.mu.RLock()
		vv, ok := sh.data[key]
		sh.mu.RUnlock()
		return vv, ok
	}
	start := time.Now()
	sh := s.shardFor(key)
	m.rlock(&sh.mu)
	vv, ok := sh.data[key]
	sh.mu.RUnlock()
	m.get.Observe(time.Since(start))
	return vv, ok
}

// GetVersion returns only the version for key; ok is false if absent.
func (s *Store) GetVersion(key string) (Version, bool) {
	vv, ok := s.Get(key)
	return vv.Version, ok
}

// Height returns the version of the most recently applied update batch.
func (s *Store) Height() Version { return *s.height.Load() }

// Len returns the number of live keys (including composite keys).
func (s *Store) Len() int { return s.index.Load().live }

// UpdateBatch is a set of writes applied atomically at commit time.
type UpdateBatch struct {
	writes map[string]write
}

type write struct {
	value  []byte
	delete bool
	ver    Version
}

// NewUpdateBatch creates an empty batch.
func NewUpdateBatch() *UpdateBatch {
	return &UpdateBatch{writes: make(map[string]write)}
}

// Put stages a write of value at version ver.
func (b *UpdateBatch) Put(key string, value []byte, ver Version) {
	b.writes[key] = write{value: value, ver: ver}
}

// Delete stages a deletion of key at version ver.
func (b *UpdateBatch) Delete(key string, ver Version) {
	b.writes[key] = write{delete: true, ver: ver}
}

// Len returns the number of staged writes.
func (b *UpdateBatch) Len() int { return len(b.writes) }

// Keys returns the staged keys in sorted order.
func (b *UpdateBatch) Keys() []string {
	keys := make([]string, 0, len(b.writes))
	for k := range b.writes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Range calls f for every staged write (in no particular order) with the
// staged value, delete flag, and version. It lets batch consumers — the
// indexed store's secondary-index maintenance, most importantly — apply a
// whole block's writes without re-reading each key from the store.
func (b *UpdateBatch) Range(f func(key string, value []byte, isDelete bool, ver Version)) {
	for key, w := range b.writes {
		f(key, w.value, w.delete, w.ver)
	}
}

// ApplyUpdates applies the batch atomically and records height as the new
// commit height. Heights must be strictly increasing across calls; this is
// the ledger invariant that makes peer restarts idempotent.
//
// Writes are applied key by key, each under its own shard's lock. Values
// overwritten or deleted while a Snapshot is outstanding are preserved into
// that snapshot's overlay first, which is what lets snapshot readers
// proceed without blocking this call.
func (s *Store) ApplyUpdates(batch *UpdateBatch, height Version) error {
	m := s.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if cur := s.Height(); height.Compare(cur) <= 0 && (cur != Version{}) {
		return fmt.Errorf("%w: have %v, got %v", ErrStaleCommitHeight, cur, height)
	}
	snaps := s.activeSnapshots()

	var changes []deltaKey
	for key, w := range batch.writes {
		changes = s.applyWrite(key, w, snaps, m, changes)
	}
	s.index.Store(s.index.Load().apply(changes))

	h := height
	s.height.Store(&h)
	if m != nil {
		m.apply.Observe(time.Since(start))
	}
	return nil
}

func (s *Store) shardIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.shards)))
}

// applyWrite applies one write under its key's shard lock, preserving the
// overwritten value into outstanding snapshots first. It appends to
// changes, for the ordered key index, the key if it became live or (as a
// tombstone) if it stopped being live.
func (s *Store) applyWrite(key string, w write, snaps []*storeSnapshot, m *storeMetrics, changes []deltaKey) []deltaKey {
	sh := s.shardFor(key)
	if m != nil {
		m.lock(&sh.mu)
	} else {
		sh.mu.Lock()
	}
	old, existed := sh.data[key]
	for _, sn := range snaps {
		sn.preserve(key, old, existed)
	}
	if w.delete {
		if existed {
			delete(sh.data, key)
			changes = append(changes, deltaKey{key: key, dead: true})
		}
	} else {
		if !existed {
			changes = append(changes, deltaKey{key: key})
		}
		sh.data[key] = VersionedValue{Value: w.value, Version: w.ver}
	}
	sh.mu.Unlock()
	return changes
}

// GetRange returns a streaming iterator over committed entries with
// startKey <= key < endKey in key order. An empty endKey means "to the end
// of the keyspace". The composite-key namespace (keys prefixed with U+0000)
// is excluded by clamping the lower bound — a single comparison, not a
// per-key check. The iterator reads from an internal snapshot, so the scan
// is consistent at a batch boundary and never blocks ApplyUpdates; it
// releases the snapshot on Close (or exhaustion).
func (s *Store) GetRange(startKey, endKey string) Iterator {
	return s.snapshot().rangeIter(startKey, endKey, true)
}

// CreateCompositeKey builds a composite key from an object type and
// attribute list, using the same U+0000 framing as Fabric.
func CreateCompositeKey(objectType string, attrs []string) (string, error) {
	if objectType == "" {
		return "", fmt.Errorf("%w: empty object type", ErrInvalidComposite)
	}
	if strings.Contains(objectType, compositeKeySep) {
		return "", fmt.Errorf("%w: object type contains U+0000", ErrInvalidComposite)
	}
	var sb strings.Builder
	sb.WriteString(compositeKeySep)
	sb.WriteString(objectType)
	sb.WriteString(compositeKeySep)
	for _, a := range attrs {
		if strings.Contains(a, compositeKeySep) {
			return "", fmt.Errorf("%w: attribute contains U+0000", ErrInvalidComposite)
		}
		sb.WriteString(a)
		sb.WriteString(compositeKeySep)
	}
	return sb.String(), nil
}

// SplitCompositeKey decomposes a composite key into its object type and
// attributes.
func SplitCompositeKey(key string) (objectType string, attrs []string, err error) {
	if !strings.HasPrefix(key, compositeKeySep) {
		return "", nil, fmt.Errorf("%w: missing prefix", ErrInvalidComposite)
	}
	parts := strings.Split(key[1:], compositeKeySep)
	if len(parts) < 2 {
		return "", nil, fmt.Errorf("%w: too few components", ErrInvalidComposite)
	}
	// Trailing separator yields one empty final element; drop it.
	return parts[0], parts[1 : len(parts)-1], nil
}

// GetByPartialCompositeKey returns a streaming iterator over all entries
// whose composite key starts with the given object type and attribute
// prefix, in key order.
func (s *Store) GetByPartialCompositeKey(objectType string, attrs []string) (Iterator, error) {
	prefix, err := CreateCompositeKey(objectType, attrs)
	if err != nil {
		return nil, err
	}
	return s.snapshot().prefixIter(prefix, true), nil
}

// Snapshot returns a height-stamped consistent read view at the current
// batch boundary. Creation is O(1): the view pins the immutable key index
// and lazily copies only values that later applies overwrite. Callers must
// Release the snapshot when done so applies stop preserving into it.
func (s *Store) Snapshot() Snapshot { return s.snapshot() }

// snapshot is Snapshot returning the concrete type. Registration happens
// before applyMu is released: an apply that started after the pinned
// boundary must already see the snapshot in snaps, or it would mutate
// shards without preserving pre-images and the view would shear. (Lock
// order applyMu -> snapMu matches ApplyUpdates and replaceState.)
func (s *Store) snapshot() *storeSnapshot {
	s.applyMu.RLock()
	sn := &storeSnapshot{
		store:  s,
		height: s.Height(),
		index:  s.index.Load(),
	}
	s.snapMu.Lock()
	s.snaps[sn] = struct{}{}
	s.snapMu.Unlock()
	s.applyMu.RUnlock()
	return sn
}

// activeSnapshots returns the outstanding snapshots an apply must preserve
// overwritten values into.
func (s *Store) activeSnapshots() []*storeSnapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if len(s.snaps) == 0 {
		return nil
	}
	out := make([]*storeSnapshot, 0, len(s.snaps))
	for sn := range s.snaps {
		out = append(out, sn)
	}
	return out
}

// dropSnapshot unregisters a released snapshot.
func (s *Store) dropSnapshot(sn *storeSnapshot) {
	s.snapMu.Lock()
	delete(s.snaps, sn)
	s.snapMu.Unlock()
}

// Export returns a deep copy of the live state as a flat map — the form the
// checkpoint codec and state transfer serialize.
func (s *Store) Export() map[string]VersionedValue {
	sn := s.snapshot()
	defer sn.Release()
	return sn.Materialize()
}

// Restore replaces the live state with the given snapshot at the given
// height; used by state-transfer and by checkpoint-based crash recovery.
// The restored height is the MVCC low-water mark: a later ApplyUpdates at a
// height at or below it is rejected as stale, which is what makes replaying
// an already-reflected block after restart a detectable no-op instead of a
// silent double-apply. Outstanding snapshots are detached (their reads
// report absent thereafter); callers quiesce readers around a restore.
func (s *Store) Restore(snap map[string]VersionedValue, height Version) {
	s.replaceState(snap, height, true)
}

// restoreOwned is Restore without the defensive deep copy: the store takes
// ownership of snap's value slices. Reserved for callers that freshly
// materialized the snapshot and never touch it again (checkpoint recovery),
// where copying a large state would only stretch the restart the snapshot
// exists to shorten.
func (s *Store) restoreOwned(snap map[string]VersionedValue, height Version) {
	s.replaceState(snap, height, false)
}

func (s *Store) replaceState(snap map[string]VersionedValue, height Version, copyValues bool) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()

	s.snapMu.Lock()
	for sn := range s.snaps {
		sn.detach()
	}
	s.snaps = make(map[*storeSnapshot]struct{})
	s.snapMu.Unlock()

	fresh := make([]map[string]VersionedValue, len(s.shards))
	for i := range fresh {
		fresh[i] = make(map[string]VersionedValue, len(snap)/len(s.shards)+1)
	}
	keys := make([]string, 0, len(snap))
	for k, vv := range snap {
		keys = append(keys, k)
		if copyValues {
			val := make([]byte, len(vv.Value))
			copy(val, vv.Value)
			vv = VersionedValue{Value: val, Version: vv.Version}
		}
		fresh[s.shardIndex(k)][k] = vv
	}
	sort.Strings(keys)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.data = fresh[i]
		sh.mu.Unlock()
	}
	s.index.Store(&keyIndex{base: keys, live: len(keys)})
	h := height
	s.height.Store(&h)
}
