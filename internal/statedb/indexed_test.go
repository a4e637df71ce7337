package statedb

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/hyperprov/hyperprov/internal/richquery"
)

func mustIndexed(t *testing.T, defs ...richquery.IndexDef) *Store {
	t.Helper()
	s, err := NewIndexed(defs...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func docBytes(t *testing.T, fields map[string]any) []byte {
	t.Helper()
	b, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func queryKeys(t *testing.T, s *Store, query string) []string {
	t.Helper()
	res, err := s.ExecuteQuery([]byte(query))
	if err != nil {
		t.Fatalf("query %s: %v", query, err)
	}
	keys := make([]string, len(res.KVs))
	for i, kv := range res.KVs {
		keys[i] = kv.Key
	}
	return keys
}

func TestIndexedStoreQueryIndexVsScan(t *testing.T) {
	indexed := mustIndexed(t, richquery.IndexDef{Name: "by-owner", Field: "owner"})
	plain := mustIndexed(t) // no indexes: every query scans

	owners := []string{"alice", "bob", "carol"}
	for block := uint64(1); block <= 3; block++ {
		b := NewUpdateBatch()
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("rec-%d-%02d", block, i)
			doc := docBytes(t, map[string]any{"owner": owners[i%len(owners)], "n": i})
			ver := Version{BlockNum: block, TxNum: uint64(i)}
			b.Put(key, doc, ver)
		}
		for _, s := range []*Store{indexed, plain} {
			if err := s.ApplyUpdates(cloneBatch(b), Version{BlockNum: block, TxNum: 99}); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, q := range []string{
		`{"selector":{"owner":"alice"}}`,
		`{"selector":{"owner":{"$in":["bob","carol"]}}}`,
		`{"selector":{"owner":{"$gte":"b"}},"sort":[{"owner":"desc"}]}`,
		`{"selector":{"n":{"$lt":5}}}`, // unindexed field: both scan
	} {
		a, b := queryKeys(t, indexed, q), queryKeys(t, plain, q)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("query %s: indexed %v != scan %v", q, a, b)
		}
		if len(a) == 0 {
			t.Errorf("query %s returned nothing", q)
		}
	}
}

// cloneBatch copies a batch so two stores can apply "the same" commit.
func cloneBatch(b *UpdateBatch) *UpdateBatch {
	out := NewUpdateBatch()
	for k, w := range b.writes {
		if w.delete {
			out.Delete(k, w.ver)
		} else {
			out.Put(k, w.value, w.ver)
		}
	}
	return out
}

// TestIndexedStoreMaintenanceAcrossCommits drives random batches of puts,
// updates, deletes, and re-adds across increasing heights and checks every
// indexed query against the scan answer after each commit.
func TestIndexedStoreMaintenanceAcrossCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	indexed := mustIndexed(t,
		richquery.IndexDef{Name: "by-owner", Field: "owner"},
		richquery.IndexDef{Name: "by-size", Field: "size"})
	shadow := map[string]bool{}
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	owners := []string{"alice", "bob"}

	for block := uint64(1); block <= 120; block++ {
		b := NewUpdateBatch()
		for n := 0; n < 1+rng.Intn(4); n++ {
			key := keys[rng.Intn(len(keys))]
			ver := Version{BlockNum: block, TxNum: uint64(n)}
			if shadow[key] && rng.Intn(3) == 0 {
				b.Delete(key, ver)
				shadow[key] = false
			} else {
				doc := docBytes(t, map[string]any{
					"owner": owners[rng.Intn(len(owners))],
					"size":  float64(rng.Intn(10)),
				})
				b.Put(key, doc, ver)
				shadow[key] = true
			}
		}
		if err := indexed.ApplyUpdates(b, Version{BlockNum: block, TxNum: 10}); err != nil {
			t.Fatal(err)
		}

		for _, q := range []string{
			`{"selector":{"owner":"alice"}}`,
			`{"selector":{"size":{"$gte":3,"$lt":8}}}`,
		} {
			got := queryKeys(t, indexed, q)
			want := scanReference(t, indexed, q)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("block %d query %s: indexed %v != scan %v", block, q, got, want)
			}
		}
	}

	// Restore must rebuild indexes: move state to a fresh store.
	snap := indexed.Export()
	restored := mustIndexed(t,
		richquery.IndexDef{Name: "by-owner", Field: "owner"},
		richquery.IndexDef{Name: "by-size", Field: "size"})
	restored.Restore(snap, indexed.Height())
	for _, q := range []string{`{"selector":{"owner":"alice"}}`, `{"selector":{"size":{"$lt":4}}}`} {
		if fmt.Sprint(queryKeys(t, restored, q)) != fmt.Sprint(queryKeys(t, indexed, q)) {
			t.Errorf("restored store answers %s differently", q)
		}
	}
}

// scanReference answers q by brute force over a snapshot through the same
// Apply pipeline but with no index involved.
func scanReference(t *testing.T, s *Store, query string) []string {
	t.Helper()
	q, err := richquery.ParseQuery([]byte(query))
	if err != nil {
		t.Fatal(err)
	}
	var cands []richquery.Candidate
	for _, kv := range Collect(s.GetRange("", "")) {
		cands = append(cands, richquery.Candidate{Key: kv.Key, Value: kv.Value})
	}
	keys, _, err := richquery.Apply(q, cands)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestDefineIndexOverExistingState(t *testing.T) {
	s := mustIndexed(t)
	b := NewUpdateBatch()
	for i := 0; i < 10; i++ {
		b.Put(fmt.Sprintf("k%d", i), docBytes(t, map[string]any{"owner": fmt.Sprintf("o%d", i%2)}),
			Version{BlockNum: 1, TxNum: uint64(i)})
	}
	if err := s.ApplyUpdates(b, Version{BlockNum: 1, TxNum: 10}); err != nil {
		t.Fatal(err)
	}
	// Declared after the data landed: must be built over existing state.
	if err := s.DefineIndexes([]richquery.IndexDef{richquery.IndexDef{Name: "by-owner", Field: "owner"}}); err != nil {
		t.Fatal(err)
	}
	if got := queryKeys(t, s, `{"selector":{"owner":"o1"}}`); len(got) != 5 {
		t.Errorf("late-defined index found %v", got)
	}
	// Same name, same field: idempotent. Same name, new field: error.
	if err := s.DefineIndexes([]richquery.IndexDef{richquery.IndexDef{Name: "by-owner", Field: "owner"}}); err != nil {
		t.Errorf("idempotent redefine rejected: %v", err)
	}
	if err := s.DefineIndexes([]richquery.IndexDef{richquery.IndexDef{Name: "by-owner", Field: "size"}}); err == nil {
		t.Error("conflicting redefine accepted")
	}
	if err := s.DefineIndexes([]richquery.IndexDef{richquery.IndexDef{Name: "", Field: "x"}}); err == nil {
		t.Error("empty index name accepted")
	}
}

// TestDefineIndexesAtomic: a batch containing one bad definition must not
// leave any of the batch's good definitions behind (chaincode install
// failure cannot strand half an index set).
func TestDefineIndexesAtomic(t *testing.T) {
	s := mustIndexed(t, richquery.IndexDef{Name: "existing", Field: "owner"})
	err := s.DefineIndexes([]richquery.IndexDef{
		{Name: "new-1", Field: "a"},
		{Name: "existing", Field: "different"}, // conflicts
		{Name: "new-2", Field: "b"},
	})
	if err == nil {
		t.Fatal("conflicting batch accepted")
	}
	defs := indexDefsOf(s)
	if len(defs) != 1 || defs[0].Name != "existing" {
		t.Fatalf("partial batch applied: %+v", defs)
	}
	// Duplicate names with divergent fields inside one batch also fail whole.
	err = s.DefineIndexes([]richquery.IndexDef{
		{Name: "dup", Field: "a"},
		{Name: "dup", Field: "b"},
	})
	if err == nil {
		t.Fatal("divergent duplicate accepted")
	}
	if len(indexDefsOf(s)) != 1 {
		t.Fatalf("partial duplicate batch applied: %+v", indexDefsOf(s))
	}
}

// TestScanQueryMatchesExecuteQuery pins the shared-pipeline property the
// shim fallback relies on.
func TestScanQueryMatchesExecuteQuery(t *testing.T) {
	s := mustIndexed(t, richquery.IndexDef{Name: "by-owner", Field: "owner"})
	b := NewUpdateBatch()
	for i := 0; i < 9; i++ {
		b.Put(fmt.Sprintf("k%d", i), docBytes(t, map[string]any{"owner": fmt.Sprintf("o%d", i%3)}),
			Version{BlockNum: 1, TxNum: uint64(i)})
	}
	if err := s.ApplyUpdates(b, Version{BlockNum: 1, TxNum: 20}); err != nil {
		t.Fatal(err)
	}
	query := []byte(`{"selector":{"owner":"o1"},"sort":[{"owner":"desc"}]}`)
	indexed, err := s.ExecuteQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := ScanQuery(s, query)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(indexed.KVs) != fmt.Sprint(scanned.KVs) {
		t.Errorf("ScanQuery diverges from ExecuteQuery:\n%v\n%v", scanned.KVs, indexed.KVs)
	}
	if len(indexed.KVs) != 3 {
		t.Errorf("query found %d, want 3", len(indexed.KVs))
	}
}

func TestIndexedStorePagination(t *testing.T) {
	s := mustIndexed(t, richquery.IndexDef{Name: "by-owner", Field: "owner"})
	b := NewUpdateBatch()
	for i := 0; i < 23; i++ {
		b.Put(fmt.Sprintf("k%02d", i), docBytes(t, map[string]any{"owner": "alice", "n": i}),
			Version{BlockNum: 1, TxNum: uint64(i)})
	}
	if err := s.ApplyUpdates(b, Version{BlockNum: 1, TxNum: 30}); err != nil {
		t.Fatal(err)
	}
	var got []string
	bookmark := ""
	for page := 0; ; page++ {
		q := map[string]any{"selector": map[string]any{"owner": "alice"}, "limit": 5}
		if bookmark != "" {
			q["bookmark"] = bookmark
		}
		raw, _ := json.Marshal(q)
		res, err := s.ExecuteQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range res.KVs {
			got = append(got, kv.Key)
		}
		if res.Bookmark == "" {
			break
		}
		bookmark = res.Bookmark
		if page > 10 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(got) != 23 {
		t.Fatalf("paged %d keys, want 23", len(got))
	}
	seen := map[string]bool{}
	for _, k := range got {
		if seen[k] {
			t.Errorf("duplicate %q across pages", k)
		}
		seen[k] = true
	}
}

func TestIndexedStoreRejectsBadQuery(t *testing.T) {
	s := mustIndexed(t)
	if _, err := s.ExecuteQuery([]byte(`{"selector":{"a":{"$bogus":1}}}`)); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := s.ExecuteQuery([]byte(`not json`)); err == nil {
		t.Error("non-JSON query accepted")
	}
}

// indexEntries is what the indexes of s hold now.
func indexEntries(s *Store) map[string][]richquery.IndexEntry {
	sn := s.snapshot()
	defer sn.Release()
	return sn.IndexEntries()
}

// indexDefsOf is the indexes s declares now.
func indexDefsOf(s *Store) []richquery.IndexDef {
	sn := s.snapshot()
	defer sn.Release()
	return sn.IndexDefs()
}

// rebuiltEntries is what the indexes of s hold when built in one go
// (BuildIndex over the stored values) from the state s holds now.
func rebuiltEntries(t *testing.T, s *Store) map[string][]richquery.IndexEntry {
	t.Helper()
	fresh := mustIndexed(t, indexDefsOf(s)...)
	fresh.Restore(s.Export(), s.Height())
	return indexEntries(fresh)
}

// Index maintenance reads each block's staged documents and updates the
// index entry by entry, a rebuild reads every stored one and sorts once:
// over the same state both must hold the same entries, whatever the
// documents look like. (That Extract reads a document as a decoded tree
// would is FuzzExtract's property.)
func TestIncrementalIndexesEqualRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	odd := []string{
		`{"a":1,"a":"twice"}`, `{"m":{"x":1},"m":{"y":2}}`, `{"m":{"x":1},"m":"scalar"}`, `{"a":1e999}`, `{"b":[1e999],"a":1}`,
		`{"a":{"deep":[1,{"x":null}]},"m":{"x":{"y":[]}}}`, ` {"a":1}`, `{"a":1} `, `{"a":"é\ud83d\n"}`, `{"a":-0.0,"m":{"x":0}}`,
		`{"a":1,}`, `{"a":1}{"a":2}`, `null`, `{}`, `{"m":null,"a":null}`, `{"m":{"x":null}}`,
	}
	s := mustIndexed(t, richquery.IndexDef{Name: "by-a", Field: "a"}, richquery.IndexDef{Name: "by-mx", Field: "m.x"},
		richquery.IndexDef{Name: "by-m", Field: "m"}, richquery.IndexDef{Name: "by-b", Field: "b"})
	for block := uint64(1); block <= 40; block++ {
		b := NewUpdateBatch()
		for i := 0; i < 25; i++ {
			key, ver := fmt.Sprintf("k%02d", rng.Intn(60)), Version{BlockNum: block, TxNum: uint64(i)}
			switch rng.Intn(6) {
			case 0:
				b.Delete(key, ver)
			case 1:
				b.Put(key, []byte(odd[rng.Intn(len(odd))]), ver)
			default:
				b.Put(key, planDoc(rng), ver)
			}
		}
		if err := s.ApplyUpdates(b, Version{BlockNum: block, TxNum: 99}); err != nil {
			t.Fatal(err)
		}
		if got, want := indexEntries(s), rebuiltEntries(t, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d: incremental indexes\n%v\nrebuilt\n%v", block, got, want)
		}
	}
	if n := len(indexEntries(s)["by-mx"]); n < 5 {
		t.Fatalf("by-mx holds %d entries: the generator no longer reaches it", n)
	}
}

// ApplyUpdates reads the staged documents before it takes the store's lock. An
// index defined in between was built from state without the batch and was
// not among the paths read: it must still come to hold the batch.
func TestDefineIndexesDuringApplyUpdates(t *testing.T) {
	s := mustIndexed(t, richquery.IndexDef{Name: "by-a", Field: "a"})
	fields := []string{"b", "m.x", "m", "c", "a"} // the last one is by-a again, under another name
	const blocks = 300
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // the committer
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for block := uint64(1); block <= blocks; block++ {
			b := NewUpdateBatch()
			for i := 0; i < 8; i++ {
				key, ver := fmt.Sprintf("k%03d", rng.Intn(200)), Version{BlockNum: block, TxNum: uint64(i)}
				if rng.Intn(8) == 0 {
					b.Delete(key, ver)
				} else {
					b.Put(key, planDoc(rng), ver)
				}
			}
			if err := s.ApplyUpdates(b, Version{BlockNum: block, TxNum: 99}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // chaincode installs, spread over the run
		defer wg.Done()
		for i, field := range fields {
			for s.Height().BlockNum < uint64((i+1)*blocks/(len(fields)+1)) {
				runtime.Gosched()
			}
			if err := s.DefineIndexes([]richquery.IndexDef{richquery.IndexDef{Name: "ix-" + field, Field: field}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // a reader, for the race detector
		defer wg.Done()
		for s.Height().BlockNum < blocks {
			if _, err := s.ExecuteQuery([]byte(`{"selector":{"a":{"$gt":0}}}`)); err != nil {
				t.Error(err)
				return
			}
			indexDefsOf(s)
		}
	}()
	wg.Wait()
	if len(indexDefsOf(s)) != 1+len(fields) {
		t.Fatalf("%d indexes defined, want %d", len(indexDefsOf(s)), 1+len(fields))
	}
	if got, want := indexEntries(s), rebuiltEntries(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("indexes after concurrent installs\n%v\nrebuilt from state\n%v", got, want)
	}
}

// Every batch boundary has exactly n documents with owner "x": each batch
// moves as many documents from "x" to "y" as from "y" to "x". Rich queries
// running beside the committer — exact ones, answered from the index range
// alone, and sorted ones, whose candidates are re-read and re-checked — must
// each see one boundary, so each counts exactly n, whether run on the store
// or on a snapshot held across commits.
func TestExecuteQuerySeesOneBoundary(t *testing.T) {
	const docs, n, batches = 64, 24, 400
	s := mustIndexed(t, richquery.IndexDef{Name: "by-owner", Field: "owner"})
	owner := make([]string, docs)
	seed := NewUpdateBatch()
	for i := range owner {
		owner[i] = "y"
		if i < n {
			owner[i] = "x"
		}
		seed.Put(fmt.Sprintf("d%02d", i), docBytes(t, map[string]any{"owner": owner[i], "n": i}), Version{BlockNum: 1})
	}
	if err := s.ApplyUpdates(seed, Version{BlockNum: 1, TxNum: 1}); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`{"selector":{"owner":"x"}}`,                       // exact: the index range is the answer
		`{"selector":{"owner":"x"},"sort":[{"n":"desc"}]}`, // sorted: documents re-read and re-checked
	}
	// check reports whether res is the n documents owned by "x" at one
	// boundary: keys and values alike.
	check := func(res *QueryResult, err error) bool {
		if err != nil || len(res.KVs) != n {
			return false
		}
		for _, kv := range res.KVs {
			if !strings.Contains(string(kv.Value), `"owner":"x"`) {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(query []byte) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !check(s.ExecuteQuery(query)) {
					t.Errorf("%s on the store: not the %d documents of one boundary", query, n)
					return
				}
				sn := s.snapshot()
				for range 3 { // the same answer however many commits land meanwhile
					if !check(sn.ExecuteQuery(query)) {
						t.Errorf("%s on a snapshot at %v: not the %d documents of its boundary", query, sn.Height(), n)
						sn.Release()
						return
					}
				}
				sn.Release()
			}
		}([]byte(queries[r%len(queries)]))
	}

	rng := rand.New(rand.NewSource(39))
	for block := uint64(2); block <= batches; block++ {
		b := NewUpdateBatch()
		moved := map[int]bool{}
		for swaps := 1 + rng.Intn(3); swaps > 0; swaps-- {
			var from [2]int // one "x" document and one "y" document, not yet moved
			for k, want := range []string{"x", "y"} {
				for {
					i := rng.Intn(docs)
					if owner[i] == want && !moved[i] {
						from[k] = i
						break
					}
				}
			}
			for k, i := range from {
				moved[i] = true
				owner[i] = []string{"y", "x"}[k]
				b.Put(fmt.Sprintf("d%02d", i), docBytes(t, map[string]any{"owner": owner[i], "n": i}), Version{BlockNum: block})
			}
		}
		if err := s.ApplyUpdates(b, Version{BlockNum: block, TxNum: 1}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
