package statedb

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/richquery"
)

// IndexedStore is the CouchDB-flavour state database: a versioned KV store
// that additionally reads JSON document values, maintains declared
// secondary field indexes incrementally at commit time, and serves
// Mango-style rich queries through a planner that uses an index when the
// selector constrains an indexed field and falls back to a filtered scan
// otherwise. This is the component that makes HyperProv's provenance
// queries (by owner, by type, by time window) practical at scale, mirroring
// the paper's use of CouchDB rich queries on Hyperledger Fabric.
// The zero value is not usable; call NewIndexed.
type IndexedStore struct {
	// mu guards the secondary indexes only. Queries hold it just long
	// enough to plan and copy matching keys out of an index; candidate
	// documents are then streamed from a snapshot with no lock held, so a
	// long rich query no longer blocks ApplyUpdates (and vice versa). The
	// inner sharded Store synchronizes itself.
	mu    sync.RWMutex
	store *Store
	// indexes in definition order, paths[i] = indexes[i].Path(). Defining an
	// index replaces paths, never appends in place: ApplyUpdates reads it unlocked.
	indexes []*richquery.Index
	paths   [][]string
	// docsDecoded and exactRange count what rich queries cost (see the
	// metrics constants); on a registry of their own until SetMetrics
	// attaches one, guarded by mu.
	docsDecoded, exactRange *metrics.Counter
}

// NewIndexed creates an empty indexed state database with the given index
// definitions, sharded one stripe per available CPU.
func NewIndexed(defs ...richquery.IndexDef) (*IndexedStore, error) {
	return NewIndexedSharded(0, defs...)
}

// NewIndexedSharded is NewIndexed with an explicit shard count (<= 0 means
// GOMAXPROCS).
func NewIndexedSharded(shards int, defs ...richquery.IndexDef) (*IndexedStore, error) {
	s := &IndexedStore{store: NewSharded(shards)}
	s.SetMetrics(nil)
	for _, def := range defs {
		if err := s.DefineIndex(def); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SetMetrics attaches per-operation state latency instrumentation to the
// underlying sharded store, and the two rich-query counters
// (statedb_query_docs_decoded, statedb_queries_exact_range). Pass nil to
// detach.
func (s *IndexedStore) SetMetrics(reg *metrics.Registry) {
	s.store.SetMetrics(reg)
	if reg == nil {
		reg = metrics.NewRegistry() // detached: counted, exported nowhere
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docsDecoded = reg.Counter(metrics.StateQueryDocsDecoded)
	s.exactRange = reg.Counter(metrics.StateQueriesExactRange)
}

// DefineIndex declares a new index and builds it over existing state. It is
// how chaincode-shipped index declarations (Fabric's META-INF/statedb
// directory) land in the state database at install time. Redefining an
// existing name with the same field is a no-op; with a different field it
// is an error.
func (s *IndexedStore) DefineIndex(def richquery.IndexDef) error {
	return s.DefineIndexes([]richquery.IndexDef{def})
}

// DefineIndexes declares a set of indexes atomically: every definition is
// validated against the existing indexes (and the rest of the batch) before
// any is built, so a rejected chaincode install cannot leave a partial set
// of its indexes behind. Definitions that exactly match an existing index
// are skipped.
func (s *IndexedStore) DefineIndexes(defs []richquery.IndexDef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := make([]richquery.IndexDef, 0, len(defs))
	inBatch := make(map[string]string, len(defs))
	for _, def := range defs {
		if err := def.Validate(); err != nil {
			return err
		}
		if i := slices.IndexFunc(s.indexes, func(ix *richquery.Index) bool { return ix.Def().Name == def.Name }); i >= 0 {
			if old := s.indexes[i].Def(); old.Field != def.Field {
				return fmt.Errorf("statedb: index %q already defined on field %q", def.Name, old.Field)
			}
			continue
		}
		if field, ok := inBatch[def.Name]; ok {
			if field == def.Field {
				continue
			}
			return fmt.Errorf("statedb: index %q declared twice with fields %q and %q", def.Name, field, def.Field)
		}
		inBatch[def.Name] = def.Field
		fresh = append(fresh, def)
	}
	if len(fresh) == 0 {
		return nil
	}
	docs := scanCandidates(s.store)
	paths := slices.Clone(s.paths)
	for _, def := range fresh {
		ix := richquery.NewIndex(def)
		ix.Load(docs)
		s.indexes = append(s.indexes, ix)
		paths = append(paths, ix.Path())
	}
	s.paths = paths
	return nil
}

// IndexDefs returns the definitions of all declared indexes.
func (s *IndexedStore) IndexDefs() []richquery.IndexDef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]richquery.IndexDef, 0, len(s.indexes))
	for _, ix := range s.indexes {
		out = append(out, ix.Def())
	}
	return out
}

// Get returns the committed value and version for key.
func (s *IndexedStore) Get(key string) (VersionedValue, bool) { return s.store.Get(key) }

// GetVersion returns only the version for key.
func (s *IndexedStore) GetVersion(key string) (Version, bool) { return s.store.GetVersion(key) }

// Height returns the version of the last applied update batch.
func (s *IndexedStore) Height() Version { return s.store.Height() }

// GetRange streams committed entries with startKey <= key < endKey.
func (s *IndexedStore) GetRange(startKey, endKey string) Iterator {
	return s.store.GetRange(startKey, endKey)
}

// GetByPartialCompositeKey streams composite keys matching the prefix.
func (s *IndexedStore) GetByPartialCompositeKey(objectType string, attrs []string) (Iterator, error) {
	return s.store.GetByPartialCompositeKey(objectType, attrs)
}

// Len returns the number of live keys.
func (s *IndexedStore) Len() int { return s.store.Len() }

// Snapshot returns a consistent read view at the current batch boundary.
func (s *IndexedStore) Snapshot() Snapshot { return s.store.Snapshot() }

// Export returns a deep copy of the live state as a flat map.
func (s *IndexedStore) Export() map[string]VersionedValue { return s.store.Export() }

// ApplyUpdates applies the batch to the underlying store and maintains
// every declared index incrementally: deleted keys leave the indexes,
// written keys are (re)indexed from their new JSON document. Composite keys
// and non-JSON values are never indexed. Index maintenance is atomic with
// respect to the index-served side of queries (both take mu), and indexes
// are fed straight from the batch's staged values, so a block's worth of
// writes is applied without re-reading each key from the store. The staged
// documents are read — only at the indexed paths, validated whole — before
// mu is taken: writers and queries wait for the index updates alone.
func (s *IndexedStore) ApplyUpdates(batch *UpdateBatch, height Version) error {
	s.mu.RLock()
	paths := s.paths
	s.mu.RUnlock()
	keys, vals, found := extractBatch(batch, paths)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.store.ApplyUpdates(batch, height); err != nil {
		return err
	}
	if len(s.paths) != len(paths) {
		// An index defined since the read above was built from state that
		// lacked this batch; indexes are only ever added.
		keys, vals, found = extractBatch(batch, s.paths)
	}
	n := len(s.indexes)
	for w, key := range keys {
		for i, ix := range s.indexes {
			ix.Put(key, vals[w*n+i], found[w*n+i])
		}
	}
	return nil
}

// extractBatch reads what the indexes are to hold for each plain key the
// batch writes: for keys[w], the value at paths[i] is vals[w*n+i] when
// found[w*n+i]; a deleted key or a value that is no document has none.
func extractBatch(batch *UpdateBatch, paths [][]string) (keys []string, vals []any, found []bool) {
	n := len(paths)
	if n == 0 {
		return nil, nil, nil
	}
	keys, vals, found = make([]string, 0, batch.Len()), make([]any, batch.Len()*n), make([]bool, batch.Len()*n)
	batch.Range(func(key string, value []byte, isDelete bool, _ Version) {
		if strings.Contains(key, compositeKeySep) {
			return
		}
		w := len(keys)
		keys = append(keys, key)
		if isDelete || !richquery.Extract(value, paths, vals[w*n:(w+1)*n], found[w*n:(w+1)*n]) {
			clear(found[w*n : (w+1)*n])
		}
	})
	return keys, vals, found
}

// Restore replaces the live state with a snapshot and rebuilds every index
// from it (state-transfer after a partition heals).
func (s *IndexedStore) Restore(snap map[string]VersionedValue, height Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store.Restore(snap, height)
	docs := scanCandidates(s.store)
	for i, ix := range s.indexes {
		fresh := richquery.NewIndex(ix.Def())
		fresh.Load(docs)
		s.indexes[i] = fresh
	}
}

// IndexEntries exports every declared index's contents, keyed by index
// name. The commit pipeline captures this alongside the state snapshot at
// checkpoint boundaries, so a restored peer bulk-loads its indexes instead
// of re-decoding every JSON document in state.
func (s *IndexedStore) IndexEntries() map[string][]richquery.IndexEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.indexes) == 0 {
		return nil
	}
	out := make(map[string][]richquery.IndexEntry, len(s.indexes))
	for _, ix := range s.indexes {
		out[ix.Def().Name] = ix.Entries()
	}
	return out
}

// RestoreWithIndexEntries is Restore for checkpoint recovery: indexes whose
// serialized entries are present bulk-load them (no document re-decoding);
// any declared index missing from entries is rebuilt from the snapshot.
// Unlike Restore, the store takes ownership of snap (no deep copy) — the
// caller must have materialized it freshly, as checkpoint decoding does.
func (s *IndexedStore) RestoreWithIndexEntries(snap map[string]VersionedValue, height Version, entries map[string][]richquery.IndexEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store.restoreOwned(snap, height)
	var docs []richquery.Candidate // lazily built for indexes without entries
	for i, ix := range s.indexes {
		fresh := richquery.NewIndex(ix.Def())
		if es, ok := entries[ix.Def().Name]; ok {
			fresh.LoadEntries(es)
		} else {
			if docs == nil {
				docs = scanCandidates(s.store)
			}
			fresh.Load(docs)
		}
		s.indexes[i] = fresh
	}
}

// ExecuteQuery runs a Mango query against a consistent snapshot of state.
// Under a brief read lock the planner picks an index and copies the
// matching keys out of it; the snapshot is taken under the same lock, so
// index contents and snapshot agree. The lock is then dropped. When the plan
// is exact the keys are the match set and go to ordering and pagination as
// they are; otherwise candidate documents stream from the snapshot — a full
// filtered scan when no index applies — and the selector is re-applied to
// each, so scan-heavy queries never hold up commit. All three run the same
// order/bookmark/limit pipeline, so they return identical pages.
func (s *IndexedStore) ExecuteQuery(query []byte) (*QueryResult, error) {
	q, err := richquery.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	snap := s.store.Snapshot()
	plan := richquery.ChooseIndex(q, s.indexes)
	var keys []string
	if plan.Index != nil {
		keys = plan.Index.Range(plan.Low, plan.High)
	}
	docsDecoded, exactRange := s.docsDecoded, s.exactRange
	s.mu.RUnlock()
	defer snap.Release()

	if plan.Exact {
		exactRange.Inc()
		page, bookmark, err := richquery.ApplyExact(q, keys)
		if err != nil {
			return nil, err
		}
		return materialize(snap, page, bookmark), nil
	}
	var cands []richquery.Candidate
	if plan.Index == nil {
		cands = scanCandidates(snap)
	} else {
		for _, key := range keys {
			vv, ok := snap.Get(key)
			if !ok {
				continue
			}
			if doc, ok := richquery.DecodeDoc(vv.Value); ok {
				cands = append(cands, richquery.Candidate{Key: key, Doc: doc})
			}
		}
	}
	docsDecoded.Add(int64(len(cands)))
	return finishQuery(snap, q, cands)
}

// ScanQuery executes a Mango query against any state reader with a
// filtered full scan — the fallback for stores without rich-query support
// (the shim's LevelDB-flavour path). Live stores are snapshotted first so
// the scan is consistent. It runs the identical pipeline IndexedStore
// uses, which is what keeps fallback and indexed results interchangeable.
func ScanQuery(s StateReader, query []byte) (*QueryResult, error) {
	q, err := richquery.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	if sp, ok := s.(interface{ Snapshot() Snapshot }); ok {
		snap := sp.Snapshot()
		defer snap.Release()
		s = snap
	}
	return finishQuery(s, q, scanCandidates(s))
}

// scanCandidates streams every live JSON document from r.
func scanCandidates(r StateReader) []richquery.Candidate {
	it := r.GetRange("", "")
	defer it.Close()
	var cands []richquery.Candidate
	for {
		kv, ok := it.Next()
		if !ok {
			return cands
		}
		if doc, ok := richquery.DecodeDoc(kv.Value); ok {
			cands = append(cands, richquery.Candidate{Key: kv.Key, Doc: doc})
		}
	}
}

// finishQuery runs the shared filter/sort/pagination pipeline over cands
// and materializes the matching entries from r.
func finishQuery(r StateReader, q *richquery.Query, cands []richquery.Candidate) (*QueryResult, error) {
	keys, bookmark, err := richquery.Apply(q, cands)
	if err != nil {
		return nil, err
	}
	return materialize(r, keys, bookmark), nil
}

// materialize reads one ordered page of keys from r.
func materialize(r StateReader, keys []string, bookmark string) *QueryResult {
	res := &QueryResult{Bookmark: bookmark}
	for _, key := range keys {
		vv, ok := r.Get(key)
		if !ok {
			continue // candidate vanished mid-query; defensive
		}
		res.KVs = append(res.KVs, KV{Key: key, Value: vv.Value, Version: vv.Version})
	}
	return res
}
