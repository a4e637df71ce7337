package statedb

import (
	"strings"
	"time"

	"github.com/hyperprov/hyperprov/internal/keyset"
	"github.com/hyperprov/hyperprov/internal/richquery"
)

// storeSnapshot is a height-stamped consistent read view over a Store.
// Creation is O(1) in the size of the state: it pins the store's immutable
// key set and index versions and records nothing else up front. When a
// later ApplyUpdates overwrites or deletes a key, the apply first preserves
// the key's prior value into this snapshot's overlay (copy-on-write undo
// log); each snapshot read takes the store's read lock once and consults
// the overlay before the live map, so it observes the state exactly as of
// the snapshot's batch boundary. No lock is held between reads, so a
// snapshot kept for a whole simulation, a checkpoint materialization or an
// open iterator never stalls commit. It is also the read surface a peer
// hands one chaincode simulation, rich queries included: point, range,
// composite and rich reads all see the one boundary.
type storeSnapshot struct {
	store   *Store
	height  Version
	keys    *keyset.Set
	indexes []richquery.Index

	// overlay and detached are written under the store's write lock (by
	// ApplyUpdates and Restore) and read under its read lock.
	overlay  map[string]preImage // lazily allocated
	detached bool
}

// preImage is a key's value as of the snapshot's boundary; existed is false
// when the key was absent then (and was created afterwards).
type preImage struct {
	vv      VersionedValue
	existed bool
}

var _ Snapshot = (*storeSnapshot)(nil)

// preserve records key's pre-apply value, keeping only the oldest pre-image
// (the one at the snapshot boundary). Called by ApplyUpdates under the
// store's write lock, before the map mutation.
func (sn *storeSnapshot) preserve(key string, old VersionedValue, existed bool) {
	if sn.overlay == nil {
		sn.overlay = make(map[string]preImage)
	}
	if _, ok := sn.overlay[key]; !ok {
		sn.overlay[key] = preImage{vv: old, existed: existed}
	}
}

// lookup returns key's value at the snapshot boundary when an apply has
// preserved it since; a detached snapshot answers absent for every key. A
// nil sn (a live read) never hits. Called under the store's read lock.
func (sn *storeSnapshot) lookup(key string) (preImage, bool) {
	if sn == nil {
		return preImage{}, false
	}
	if sn.detached {
		return preImage{}, true
	}
	pi, ok := sn.overlay[key]
	return pi, ok
}

// Height returns the commit height the snapshot was taken at.
func (sn *storeSnapshot) Height() Version { return sn.height }

// Len returns the number of live keys at the snapshot boundary.
func (sn *storeSnapshot) Len() int { return sn.keys.Len() }

// Get returns key's value as of the snapshot boundary, from the overlay
// when an apply has overwritten the key since, from the live map otherwise,
// under one read lock.
func (sn *storeSnapshot) Get(key string) (VersionedValue, bool) { return sn.store.read(key, sn) }

// GetVersion returns only the version for key at the snapshot boundary.
func (sn *storeSnapshot) GetVersion(key string) (Version, bool) {
	vv, ok := sn.Get(key)
	return vv.Version, ok
}

// GetRange returns a streaming iterator over [startKey, endKey) at the
// snapshot boundary, excluding the composite-key namespace by bound. The
// iterator does not release the snapshot; the snapshot's owner does.
func (sn *storeSnapshot) GetRange(startKey, endKey string) Iterator {
	return sn.rangeIter(startKey, endKey, false)
}

// GetByPartialCompositeKey returns a streaming iterator over composite keys
// matching the prefix at the snapshot boundary.
func (sn *storeSnapshot) GetByPartialCompositeKey(objectType string, attrs []string) (Iterator, error) {
	prefix, err := CreateCompositeKey(objectType, attrs)
	if err != nil {
		return nil, err
	}
	return sn.prefixIter(prefix, false), nil
}

// All returns a streaming iterator over every live key at the snapshot
// boundary, composite keys included — the full-state walk fingerprints and
// checkpoint materialization use.
func (sn *storeSnapshot) All() Iterator {
	return sn.newIter(sn.keys.Seek(""), nil, false)
}

// rangeIter builds a plain-namespace range iterator. The composite-key
// namespace (keys prefixed with U+0000) is excluded by clamping the lower
// bound to plainKeyFloor — one comparison for the whole scan.
func (sn *storeSnapshot) rangeIter(startKey, endKey string, releaseOnClose bool) Iterator {
	low := startKey
	if low < plainKeyFloor {
		low = plainKeyFloor
	}
	var stop func(string) bool
	if endKey != "" {
		stop = func(k string) bool { return k >= endKey }
	}
	return sn.newIter(sn.keys.Seek(low), stop, releaseOnClose)
}

// prefixIter builds a composite-key prefix iterator: it seeks to the prefix
// and stops at the first key past it.
func (sn *storeSnapshot) prefixIter(prefix string, releaseOnClose bool) Iterator {
	stop := func(k string) bool { return !strings.HasPrefix(k, prefix) }
	return sn.newIter(sn.keys.Seek(prefix), stop, releaseOnClose)
}

func (sn *storeSnapshot) newIter(cursor keyset.Iter, stop func(string) bool, releaseOnClose bool) *snapIter {
	it := &snapIter{sn: sn, cursor: cursor, stop: stop, releaseOnClose: releaseOnClose}
	if m := sn.store.metrics.Load(); m != nil {
		it.scanHist = m.scan
		it.start = time.Now()
	}
	return it
}

// Materialize deep-copies the snapshot into a flat map — the serialized
// form the checkpoint codec and state transfer use. It runs off the commit
// path (the recovery manager calls it in the persistence stage), which is
// exactly why Capture carries a Snapshot instead of a map.
func (sn *storeSnapshot) Materialize() map[string]VersionedValue {
	out := make(map[string]VersionedValue, sn.keys.Len())
	it := sn.All()
	defer it.Close()
	for {
		kv, ok := it.Next()
		if !ok {
			return out
		}
		val := make([]byte, len(kv.Value))
		copy(val, kv.Value)
		out[kv.Key] = VersionedValue{Value: val, Version: kv.Version}
	}
}

// Release detaches the snapshot from the store so applies stop preserving
// into it. The snapshot must not be read after Release. Idempotent.
func (sn *storeSnapshot) Release() { sn.store.dropSnapshot(sn) }

// snapIter streams ordered KVs from a snapshot: it walks the pinned
// immutable key index and resolves each key through the snapshot's
// overlay-then-live read, skipping keys deleted at the boundary.
type snapIter struct {
	sn             *storeSnapshot
	cursor         keyset.Iter
	stop           func(string) bool
	releaseOnClose bool
	closed         bool

	scanHist interface{ Observe(time.Duration) }
	start    time.Time
}

// Next yields the next entry in key order; ok is false once the range is
// exhausted (the iterator closes itself then).
func (it *snapIter) Next() (KV, bool) {
	if it.closed {
		return KV{}, false
	}
	for {
		k, ok := it.cursor.Next()
		if !ok || (it.stop != nil && it.stop(k)) {
			it.Close()
			return KV{}, false
		}
		vv, exists := it.sn.Get(k)
		if !exists {
			// Detached snapshot, or an index/overlay edge the read resolved
			// to absent; skip defensively.
			continue
		}
		return KV{Key: k, Value: vv.Value, Version: vv.Version}, true
	}
}

// Close ends the scan early, releasing the backing snapshot when the
// iterator owns it. Idempotent; Next auto-closes on exhaustion.
func (it *snapIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	if it.scanHist != nil {
		it.scanHist.Observe(time.Since(it.start))
	}
	if it.releaseOnClose {
		it.sn.Release()
	}
}

// Collect drains an iterator into a slice, closing it. It is the bridge for
// callers that want the whole result set at once (tests, small ranges).
func Collect(it Iterator) []KV {
	defer it.Close()
	var out []KV
	for {
		kv, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, kv)
	}
}

// ExecuteQuery runs a Mango query at the snapshot boundary. The planner
// picks one of the pinned index versions; when the plan is exact the range
// of keys it yields is the match set and goes to ordering and pagination as
// it is; otherwise candidate values are read from the snapshot — a full
// filtered scan when no index applies — and the selector is re-applied to
// each through Extract. All three run the same order/bookmark/limit
// pipeline, so they return identical pages, and none holds a lock a commit
// waits on.
func (sn *storeSnapshot) ExecuteQuery(query []byte) (*QueryResult, error) {
	q, err := richquery.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	m := sn.store.metrics.Load()
	plan := richquery.ChooseIndex(q, sn.indexes)
	var cands []richquery.Candidate
	switch {
	case plan.Index == nil:
		cands = scanCandidates(sn)
	case plan.Exact:
		if m != nil {
			m.exactRange.Inc()
		}
		page, bookmark, err := richquery.ApplyExact(q, plan.Index.Range(plan.Low, plan.High))
		if err != nil {
			return nil, err
		}
		return materialize(sn, page, bookmark), nil
	default:
		for _, key := range plan.Index.Range(plan.Low, plan.High) {
			if vv, ok := sn.Get(key); ok {
				cands = append(cands, richquery.Candidate{Key: key, Value: vv.Value})
			}
		}
	}
	if m != nil {
		m.docsRead.Add(int64(len(cands)))
	}
	return finishQuery(sn, q, cands)
}

// IndexDefs returns the definitions of the indexes the snapshot pinned.
func (sn *storeSnapshot) IndexDefs() []richquery.IndexDef {
	out := make([]richquery.IndexDef, len(sn.indexes))
	for i, ix := range sn.indexes {
		out[i] = ix.Def()
	}
	return out
}

// IndexEntries exports every pinned index's contents at the snapshot
// boundary, keyed by index name (nil when the store has none). A checkpoint
// persists them beside the state, so a restored peer bulk-loads its indexes
// instead of re-reading every JSON document in state.
func (sn *storeSnapshot) IndexEntries() map[string][]richquery.IndexEntry {
	if len(sn.indexes) == 0 {
		return nil
	}
	out := make(map[string][]richquery.IndexEntry, len(sn.indexes))
	for _, ix := range sn.indexes {
		out[ix.Def().Name] = ix.Entries()
	}
	return out
}
