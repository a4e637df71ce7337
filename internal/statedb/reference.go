package statedb

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/hyperprov/hyperprov/internal/richquery"
)

// ReferenceStore is the original state database: one RWMutex over one flat
// map, with range scans materialized and sorted under the lock and
// snapshots deep-copied. It is retained as the executable specification of
// state semantics — the oracle the Store's property tests pin
// point/range/composite/pagination results against (exactly as
// committer.NewSerial pins the pipelined committer) — and as the baseline
// the state benchmark measures the key index and overlay snapshots
// against. Not for production use.
type ReferenceStore struct {
	mu     sync.RWMutex
	data   map[string]VersionedValue
	height Version
}

// NewReference creates an empty single-lock reference store.
func NewReference() *ReferenceStore {
	return &ReferenceStore{data: make(map[string]VersionedValue)}
}

// Get returns the committed value and version for key.
func (s *ReferenceStore) Get(key string) (VersionedValue, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vv, ok := s.data[key]
	return vv, ok
}

// GetVersion returns only the version for key.
func (s *ReferenceStore) GetVersion(key string) (Version, bool) {
	vv, ok := s.Get(key)
	return vv.Version, ok
}

// Height returns the version of the last applied update batch.
func (s *ReferenceStore) Height() Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.height
}

// Len returns the number of live keys (including composite keys).
func (s *ReferenceStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// ApplyUpdates applies the batch atomically under the global lock.
func (s *ReferenceStore) ApplyUpdates(batch *UpdateBatch, height Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if height.Compare(s.height) <= 0 && (s.height != Version{}) {
		return fmt.Errorf("%w: have %v, got %v", ErrStaleCommitHeight, s.height, height)
	}
	for key, w := range batch.writes {
		if w.delete {
			delete(s.data, key)
		} else {
			s.data[key] = VersionedValue{Value: w.value, Version: w.ver}
		}
	}
	s.height = height
	return nil
}

// GetRange materializes and sorts the matching entries under the read lock
// — the O(n) full-map walk the Store's ordered index replaces —
// then streams them from the frozen slice. Semantics match Store.GetRange:
// the composite-key namespace (keys prefixed with U+0000) is excluded.
func (s *ReferenceStore) GetRange(startKey, endKey string) Iterator {
	s.mu.RLock()
	out := make([]KV, 0, 16)
	for key, vv := range s.data {
		if strings.HasPrefix(key, compositeKeySep) {
			continue
		}
		if key < startKey {
			continue
		}
		if endKey != "" && key >= endKey {
			continue
		}
		out = append(out, KV{Key: key, Value: vv.Value, Version: vv.Version})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return &sliceIter{kvs: out}
}

// GetByPartialCompositeKey materializes matching composite entries under
// the read lock and streams them sorted.
func (s *ReferenceStore) GetByPartialCompositeKey(objectType string, attrs []string) (Iterator, error) {
	prefix, err := CreateCompositeKey(objectType, attrs)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	out := make([]KV, 0, 8)
	for key, vv := range s.data {
		if strings.HasPrefix(key, prefix) {
			out = append(out, KV{Key: key, Value: vv.Value, Version: vv.Version})
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return &sliceIter{kvs: out}, nil
}

// ExecuteQuery answers a parsed Mango query with a filtered scan of a
// snapshot: no index, the same order/bookmark/limit pipeline as the Store,
// hence the same pages.
func (s *ReferenceStore) ExecuteQuery(q *richquery.Query) (*QueryResult, error) {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.ExecuteQuery(q)
}

// Snapshot deep-copies the whole map under the lock — the blocking O(n)
// capture the Store's O(1) copy-on-write snapshots replace.
func (s *ReferenceStore) Snapshot() Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data := make(map[string]VersionedValue, len(s.data))
	for k, vv := range s.data {
		data[k] = VersionedValue{Value: bytes.Clone(vv.Value), Version: vv.Version}
	}
	return &frozenSnapshot{data: data, height: s.height}
}

// Restore replaces the live state with kvs at the given height, copying
// every value.
func (s *ReferenceStore) Restore(kvs []KV, height Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = make(map[string]VersionedValue, len(kvs))
	for _, kv := range kvs {
		s.data[kv.Key] = VersionedValue{Value: bytes.Clone(kv.Value), Version: kv.Version}
	}
	s.height = height
}

// frozenSnapshot is a fully materialized snapshot: a deep copy frozen at
// creation, trivially consistent. ReferenceStore.Snapshot builds it.
type frozenSnapshot struct {
	data   map[string]VersionedValue
	height Version

	once sync.Once
	keys []string // all keys, sorted lazily on first iteration
}

func (sn *frozenSnapshot) sorted() []string {
	sn.once.Do(func() {
		sn.keys = make([]string, 0, len(sn.data))
		for k := range sn.data {
			sn.keys = append(sn.keys, k)
		}
		sort.Strings(sn.keys)
	})
	return sn.keys
}

func (sn *frozenSnapshot) Get(key string) (VersionedValue, bool) {
	vv, ok := sn.data[key]
	return vv, ok
}

func (sn *frozenSnapshot) GetVersion(key string) (Version, bool) {
	vv, ok := sn.data[key]
	return vv.Version, ok
}

func (sn *frozenSnapshot) Height() Version { return sn.height }

func (sn *frozenSnapshot) GetRange(startKey, endKey string) Iterator {
	var out []KV
	for _, k := range sn.sorted() {
		if strings.HasPrefix(k, compositeKeySep) || k < startKey {
			continue
		}
		if endKey != "" && k >= endKey {
			break
		}
		vv := sn.data[k]
		out = append(out, KV{Key: k, Value: vv.Value, Version: vv.Version})
	}
	return &sliceIter{kvs: out}
}

func (sn *frozenSnapshot) GetByPartialCompositeKey(objectType string, attrs []string) (Iterator, error) {
	prefix, err := CreateCompositeKey(objectType, attrs)
	if err != nil {
		return nil, err
	}
	var out []KV
	for _, k := range sn.sorted() {
		if strings.HasPrefix(k, prefix) {
			vv := sn.data[k]
			out = append(out, KV{Key: k, Value: vv.Value, Version: vv.Version})
		}
	}
	return &sliceIter{kvs: out}, nil
}

func (sn *frozenSnapshot) ExecuteQuery(q *richquery.Query) (*QueryResult, error) {
	return scanQuery(sn, q)
}

func (sn *frozenSnapshot) All() Iterator {
	out := make([]KV, 0, len(sn.data))
	for _, k := range sn.sorted() {
		vv := sn.data[k]
		out = append(out, KV{Key: k, Value: vv.Value, Version: vv.Version})
	}
	return &sliceIter{kvs: out}
}

func (sn *frozenSnapshot) Release() {}

// sliceIter streams a pre-materialized, already-sorted result set.
type sliceIter struct {
	kvs []KV
	pos int
}

func (it *sliceIter) Next() (KV, bool) {
	if it.pos >= len(it.kvs) {
		return KV{}, false
	}
	kv := it.kvs[it.pos]
	it.pos++
	return kv, true
}

func (it *sliceIter) Close() { it.kvs = nil }
