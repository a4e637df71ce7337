package shim

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// queryFixture commits the same documents into a Store without indexes
// (queries scan) and one with an index on owner (queries read it).
func queryFixture(t *testing.T) (plain, indexed *statedb.Store) {
	t.Helper()
	plain = statedb.New()
	var err error
	indexed, err = statedb.NewIndexed(richquery.IndexDef{Name: "by-owner", Field: "owner"})
	if err != nil {
		t.Fatal(err)
	}
	owners := []string{"alice", "bob"}
	for _, s := range []statedb.StateDB{plain, indexed} {
		b := statedb.NewUpdateBatch()
		for i := 0; i < 10; i++ {
			doc, _ := json.Marshal(map[string]any{"owner": owners[i%2], "n": i})
			b.Put(fmt.Sprintf("k%02d", i), doc, statedb.Version{BlockNum: 1, TxNum: uint64(i)})
		}
		if err := s.ApplyUpdates(b, statedb.Version{BlockNum: 1, TxNum: 20}); err != nil {
			t.Fatal(err)
		}
	}
	return plain, indexed
}

func queryStub(state statedb.StateDB) *Stub {
	return NewStub(Config{
		TxID: "tq", ChannelID: "ch", Function: "q",
		Creator: []byte("creator"), Timestamp: time.Unix(1570000000, 0),
		State: state,
	})
}

func TestGetQueryResultFallbackMatchesIndexed(t *testing.T) {
	plain, indexed := queryFixture(t)
	for _, query := range []string{
		`{"selector":{"owner":"alice"}}`,
		`{"selector":{"n":{"$gte":3,"$lt":8}},"sort":[{"n":"desc"}]}`,
		`{"owner":{"$in":["bob"]}}`, // bare selector form
	} {
		a := stubQueryKeys(t, queryStub(plain), query)
		b := stubQueryKeys(t, queryStub(indexed), query)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("query %s: plain %v != indexed %v", query, a, b)
		}
		if len(a) == 0 {
			t.Errorf("query %s returned nothing", query)
		}
	}
}

func stubQueryKeys(t *testing.T, stub *Stub, query string) []string {
	t.Helper()
	kvs, err := stub.GetQueryResult(query)
	if err != nil {
		t.Fatalf("GetQueryResult(%s): %v", query, err)
	}
	keys := make([]string, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	return keys
}

func TestGetQueryResultRecordsDependencies(t *testing.T) {
	_, indexed := queryFixture(t)
	stub := queryStub(indexed)
	kvs, err := stub.GetQueryResult(`{"selector":{"owner":"alice"}}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 5 {
		t.Fatalf("result = %d kvs, want 5", len(kvs))
	}
	rws := stub.RWSet()
	if len(rws.QueryReads) != 1 {
		t.Fatalf("queryReads = %d, want 1", len(rws.QueryReads))
	}
	if len(rws.QueryReads[0].Keys) != 5 {
		t.Errorf("query read observed %d keys", len(rws.QueryReads[0].Keys))
	}
	// Every returned key must carry a version read for MVCC.
	reads := map[string]bool{}
	for _, r := range rws.Reads {
		if r.Version == nil {
			t.Errorf("read of %q has no version", r.Key)
		}
		reads[r.Key] = true
	}
	for _, kv := range kvs {
		if !reads[kv.Key] {
			t.Errorf("returned key %q missing from read set", kv.Key)
		}
	}
	// The recorded query must be re-executable against the state database.
	res, err := indexed.ExecuteQuery(rws.QueryReads[0].Query)
	if err != nil {
		t.Fatalf("recorded query does not re-execute: %v", err)
	}
	if len(res.KVs) != 5 {
		t.Errorf("re-execution found %d keys", len(res.KVs))
	}
}

func TestGetQueryResultWithPagination(t *testing.T) {
	_, indexed := queryFixture(t)
	stub := queryStub(indexed)
	var all []string
	bookmark := ""
	for page := 0; ; page++ {
		kvs, next, err := stub.GetQueryResultWithPagination(`{"selector":{"owner":"alice"}}`, 2, bookmark)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range kvs {
			all = append(all, kv.Key)
		}
		if next == "" {
			break
		}
		bookmark = next
		if page > 5 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(all) != 5 {
		t.Errorf("paged %d keys, want 5", len(all))
	}
	if _, _, err := stub.GetQueryResultWithPagination(`{"selector":{}}`, 0, ""); err == nil {
		t.Error("page size 0 accepted")
	}
}

func TestGetQueryResultBadQuery(t *testing.T) {
	plain, _ := queryFixture(t)
	stub := queryStub(plain)
	if _, err := stub.GetQueryResult(`{"selector":{"a":{"$nope":1}}}`); err == nil {
		t.Error("bad operator accepted")
	}
	if _, err := stub.GetQueryResult(`42`); err == nil {
		t.Error("non-object query accepted")
	}
}
