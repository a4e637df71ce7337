// Package statedb implements the versioned world-state store that backs
// each peer's ledger, mirroring Fabric's state database: a key-value store
// (the LevelDB flavour) that also reads JSON document values and serves
// Mango-style rich queries (the CouchDB flavour) — from declared secondary
// indexes when the selector constrains an indexed field, by a filtered scan
// otherwise, and wholly by scan on a store with no indexes. Every committed
// value carries the (block, txNum) version used by MVCC validation.
//
// One RWMutex guards the store: a point read takes its read side, a batch
// apply its write side, once each. Ordered access — range scans,
// composite-key queries, index lookups — is served by copy-on-write ordered
// sets (keyset.Set): one over the live keys, one per rich-query index. Scans
// are streaming iterators with O(log n) seek and early termination instead
// of a full-map materialize-and-sort. Height-stamped snapshots
// (Store.Snapshot) pin every set at a batch boundary and give readers,
// rich queries included, a consistent view there without holding the lock
// between reads; see snapshot.go.
package statedb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hyperprov/hyperprov/internal/keyset"
	"github.com/hyperprov/hyperprov/internal/richquery"
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

// Store is a thread-safe versioned state database for one channel on one
// peer: a KV store that also maintains declared secondary field indexes
// over its JSON documents at commit time and serves rich queries from them.
// This is the component that makes HyperProv's provenance queries (by
// owner, by type, by time window) practical at scale, mirroring the paper's
// use of CouchDB rich queries on Hyperledger Fabric. A store with no
// indexes answers rich queries by scan. The zero value is not usable; call
// New.
//
// Concurrency model: one RWMutex, mu, guards the map, the indexes and the
// overlays of outstanding snapshots. ApplyUpdates, Restore and
// DefineIndexes take its write side once per call; a point read, a
// snapshot read, and registering or releasing a snapshot take its read side
// once. A Snapshot holds no lock between its reads, so it never stalls a
// later apply: the apply preserves overwritten values into the snapshot's
// overlay (copy-on-write) instead of waiting, and publishes new set
// versions instead of changing the ones the snapshot pinned.
//
// No method takes mu twice on one goroutine: a second read lock queued
// behind a waiting writer would deadlock.
type Store struct {
	mu   sync.RWMutex
	data map[string]VersionedValue
	// indexes are the declared rich-query indexes in definition order, each
	// at its newest version: replaced under mu's write side, copied by a
	// snapshot under its read side.
	indexes []richquery.Index

	// height, keys and paths are published under mu's write side and read
	// without it (Height, Len, a snapshot's pinned key set, and the document
	// extraction ApplyUpdates runs before taking mu). paths[i] is
	// indexes[i].Path(); DefineIndexes replaces the slice, never appends in
	// place.
	height atomic.Pointer[Version]
	keys   atomic.Pointer[keyset.Set]
	paths  atomic.Pointer[[][]string]

	// snaps changes only under mu's read side, with snapMu ordering
	// concurrent readers, so an apply holding the write side walks it
	// without snapMu.
	snapMu sync.Mutex
	snaps  map[*storeSnapshot]struct{}

	metrics atomic.Pointer[storeMetrics]
}

// New creates an empty state store with no indexes.
func New() *Store {
	s := &Store{
		data:  make(map[string]VersionedValue),
		snaps: make(map[*storeSnapshot]struct{}),
	}
	s.keys.Store(keyset.New(nil))
	s.height.Store(&Version{})
	s.paths.Store(&[][]string{})
	return s
}

// Get returns the committed value and version for key. ok is false if the
// key is absent (or has been deleted).
func (s *Store) Get(key string) (VersionedValue, bool) { return s.read(key, nil) }

// read looks key up under one read lock: in sn's overlay first when sn is
// a snapshot, in the live map otherwise or on an overlay miss.
func (s *Store) read(key string, sn *storeSnapshot) (vv VersionedValue, ok bool) {
	m := s.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	m.rlock(&s.mu)
	if pi, hit := sn.lookup(key); hit {
		vv, ok = pi.vv, pi.existed
	} else {
		vv, ok = s.data[key]
	}
	s.mu.RUnlock()
	if m != nil {
		m.get.Observe(time.Since(start))
	}
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
func (s *Store) Len() int { return s.keys.Load().Len() }

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
// store's secondary-index maintenance, most importantly — apply a whole
// block's writes without re-reading each key from the store.
func (b *UpdateBatch) Range(f func(key string, value []byte, isDelete bool, ver Version)) {
	for key, w := range b.writes {
		f(key, w.value, w.delete, w.ver)
	}
}

// ApplyUpdates applies the batch atomically and records height as the new
// commit height. Heights must be strictly increasing across calls; this is
// the ledger invariant that makes peer restarts idempotent.
//
// The whole batch is applied under one write lock, which also publishes the
// key set's and every changed index's next version. Values overwritten or
// deleted while a Snapshot is outstanding are preserved into that
// snapshot's overlay first, which is what lets snapshot readers proceed
// between their reads without blocking this call. The staged documents are
// read — only at the indexed paths, validated whole — before the lock is
// taken: writers and readers wait for the map and set updates alone.
// Composite keys and non-JSON values are never indexed.
func (s *Store) ApplyUpdates(batch *UpdateBatch, height Version) error {
	m := s.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	paths := *s.paths.Load()
	keys, vals, found := extractBatch(batch, paths)
	m.lock(&s.mu)
	defer s.mu.Unlock()
	if cur := s.Height(); height.Compare(cur) <= 0 && (cur != Version{}) {
		return fmt.Errorf("%w: have %v, got %v", ErrStaleCommitHeight, cur, height)
	}

	// changes feeds the key set: each key that became live, and (as a
	// tombstone) each that stopped being live.
	var buf [64]keyset.Change // a block of a few dozen writes changes no more
	changes := buf[:0]
	if n := len(batch.writes); n > len(buf) {
		changes = make([]keyset.Change, 0, n)
	}
	for key, w := range batch.writes {
		old, existed := s.data[key]
		for sn := range s.snaps {
			sn.preserve(key, old, existed)
		}
		switch {
		case !w.delete:
			if !existed {
				changes = append(changes, keyset.Change{Key: key})
			}
			s.data[key] = VersionedValue{Value: w.value, Version: w.ver}
		case existed:
			delete(s.data, key)
			changes = append(changes, keyset.Change{Key: key, Dead: true})
		}
	}
	s.keys.Store(s.keys.Load().Apply(changes))
	if len(s.indexes) != len(paths) {
		// An index defined since the extraction above was built from state
		// that lacked this batch; indexes are only ever added.
		keys, vals, found = extractBatch(batch, *s.paths.Load())
	}
	n := len(s.indexes)
	for i := range s.indexes {
		s.indexes[i] = s.indexes[i].Update(keys, func(w int) (any, bool) { return vals[w*n+i], found[w*n+i] })
	}

	h := height
	s.height.Store(&h)
	if m != nil {
		m.apply.Observe(time.Since(start))
	}
	return nil
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
// batch boundary. Creation is O(1) in the size of the state: the view pins
// the immutable key set and index versions and lazily copies only values
// that later applies overwrite. Callers must Release the snapshot when done
// so applies stop preserving into it.
func (s *Store) Snapshot() Snapshot { return s.snapshot() }

// snapshot is Snapshot returning the concrete type. The boundary is pinned
// and the snapshot registered under one read lock: the next apply, which
// needs the write side, therefore already sees it in snaps and preserves
// every pre-image it overwrites.
func (s *Store) snapshot() *storeSnapshot {
	s.mu.RLock()
	sn := &storeSnapshot{
		store:   s,
		height:  s.Height(),
		keys:    s.keys.Load(),
		indexes: slices.Clone(s.indexes),
	}
	s.snapMu.Lock()
	s.snaps[sn] = struct{}{}
	s.snapMu.Unlock()
	s.mu.RUnlock()
	return sn
}

// dropSnapshot unregisters a released snapshot, so applies stop preserving
// into it.
func (s *Store) dropSnapshot(sn *storeSnapshot) {
	s.mu.RLock()
	s.snapMu.Lock()
	delete(s.snaps, sn)
	s.snapMu.Unlock()
	s.mu.RUnlock()
}

// Export returns a deep copy of the live state as a flat map — the form the
// checkpoint codec and state transfer serialize.
func (s *Store) Export() map[string]VersionedValue {
	sn := s.snapshot()
	defer sn.Release()
	return sn.Materialize()
}

// Restore replaces the live state with the given snapshot at the given
// height and rebuilds every index from it; used by state-transfer after a
// partition heals. The restored height is the MVCC low-water mark: a later
// ApplyUpdates at a height at or below it is rejected as stale, which is
// what makes replaying an already-reflected block after restart a
// detectable no-op instead of a silent double-apply. Outstanding snapshots
// are detached (their reads report absent thereafter); callers quiesce
// readers around a restore.
func (s *Store) Restore(snap map[string]VersionedValue, height Version) {
	s.replaceState(snap, height, true, nil)
}

// RestoreWithIndexEntries is Restore for checkpoint recovery: indexes whose
// serialized entries are present bulk-load them (no document is re-read);
// any declared index missing from entries is rebuilt from the snapshot.
// Unlike Restore, the store takes ownership of snap (no deep copy) — the
// caller must have materialized it freshly, as checkpoint decoding does,
// and a copy would only stretch the restart the checkpoint exists to
// shorten.
func (s *Store) RestoreWithIndexEntries(snap map[string]VersionedValue, height Version, entries map[string][]richquery.IndexEntry) {
	s.replaceState(snap, height, false, entries)
}

func (s *Store) replaceState(snap map[string]VersionedValue, height Version, copyValues bool, entries map[string][]richquery.IndexEntry) {
	fresh := make(map[string]VersionedValue, len(snap))
	keys := make([]string, 0, len(snap))
	for k, vv := range snap {
		keys = append(keys, k)
		if copyValues {
			val := make([]byte, len(vv.Value))
			copy(val, vv.Value)
			vv = VersionedValue{Value: val, Version: vv.Version}
		}
		fresh[k] = vv
	}
	sort.Strings(keys)

	s.mu.Lock()
	defer s.mu.Unlock()
	for sn := range s.snaps {
		sn.detached = true
	}
	s.snaps = make(map[*storeSnapshot]struct{})
	s.data = fresh
	s.keys.Store(keyset.New(keys))
	var rebuild []int // the indexes entries lacks, built in one pass
	var defs []richquery.IndexDef
	for i, ix := range s.indexes {
		if es, ok := entries[ix.Def().Name]; ok {
			s.indexes[i] = richquery.LoadIndex(ix.Def(), es)
			continue
		}
		rebuild, defs = append(rebuild, i), append(defs, ix.Def())
	}
	if len(defs) > 0 {
		for j, ix := range richquery.BuildIndexes(defs, mapCandidates(fresh)) {
			s.indexes[rebuild[j]] = ix
		}
	}
	h := height
	s.height.Store(&h)
}
