package statedb

import (
	"fmt"
	"slices"
	"strings"

	"github.com/hyperprov/hyperprov/internal/richquery"
)

// IndexedStore is Store under the name the repository benchmark's probes
// (benchmark/probes.go) use; it exists only for them.
type IndexedStore = Store

// NewIndexed creates an empty state store with the given index
// definitions.
func NewIndexed(defs ...richquery.IndexDef) (*Store, error) {
	s := New()
	if err := s.DefineIndexes(defs); err != nil {
		return nil, err
	}
	return s, nil
}

// DefineIndexes declares a set of indexes and builds them over existing
// state. It is how chaincode-shipped index declarations (Fabric's
// META-INF/statedb directory) land in the state database at install time.
// The set is atomic: every definition is validated against the existing
// indexes (and the rest of the set) before any is built, so a rejected
// chaincode install cannot leave a partial set of its indexes behind.
// Redefining an existing name with the same field is a no-op; with a
// different field it is an error. The new indexes are built under the
// write lock, from the state at the current batch boundary.
func (s *Store) DefineIndexes(defs []richquery.IndexDef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := make([]richquery.IndexDef, 0, len(defs))
	inBatch := make(map[string]string, len(defs))
	for _, def := range defs {
		if err := def.Validate(); err != nil {
			return err
		}
		if i := slices.IndexFunc(s.indexes, func(ix richquery.Index) bool { return ix.Def().Name == def.Name }); i >= 0 {
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
	docs := mapCandidates(s.data)
	paths := slices.Clone(*s.paths.Load())
	for _, ix := range richquery.BuildIndexes(fresh, docs) {
		s.indexes = append(s.indexes, ix)
		paths = append(paths, ix.Path())
	}
	s.paths.Store(&paths)
	return nil
}

// ExecuteQuery answers a parsed Mango query on a snapshot at the current
// batch boundary (see the snapshot's ExecuteQuery).
func (s *Store) ExecuteQuery(q *richquery.Query) (*QueryResult, error) {
	sn := s.snapshot()
	defer sn.Release()
	return sn.ExecuteQuery(q)
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

// scanQuery answers q on r with a filtered full scan through the pipeline
// a Store's planner ends in, so the ReferenceStore oracle and an indexed
// Store return identical pages. r must not change underneath: it is a
// snapshot.
func scanQuery(r StateReader, q *richquery.Query) (*QueryResult, error) {
	return finishQuery(r, q, scanCandidates(r))
}

// scanCandidates streams every live value from r, undecoded: Apply reads
// the documents among them with Extract.
func scanCandidates(r StateReader) []richquery.Candidate {
	it := r.GetRange("", "")
	defer it.Close()
	var cands []richquery.Candidate
	for {
		kv, ok := it.Next()
		if !ok {
			return cands
		}
		cands = append(cands, richquery.Candidate{Key: kv.Key, Value: kv.Value})
	}
}

// mapCandidates is scanCandidates over a map the caller owns or holds the
// write lock over, in no particular order: every value outside the
// composite-key namespace, for BuildIndexes to read.
func mapCandidates(data map[string]VersionedValue) []richquery.Candidate {
	cands := make([]richquery.Candidate, 0, len(data))
	for key, vv := range data {
		if key >= plainKeyFloor {
			cands = append(cands, richquery.Candidate{Key: key, Value: vv.Value})
		}
	}
	return cands
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
	res := &QueryResult{KVs: make([]KV, 0, len(keys)), Bookmark: bookmark}
	for _, key := range keys {
		vv, ok := r.Get(key)
		if !ok {
			continue // candidate vanished mid-query; defensive
		}
		res.KVs = append(res.KVs, KV{Key: key, Value: vv.Value, Version: vv.Version})
	}
	return res
}
