package shim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/rwset"
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
	seedQueryDocs(t, plain)
	seedQueryDocs(t, indexed)
	return plain, indexed
}

// seedQueryDocs commits ten documents, k00..k09, owned by alice and bob in
// turn.
func seedQueryDocs(t *testing.T, s statedb.StateDB) {
	t.Helper()
	owners := []string{"alice", "bob"}
	b := statedb.NewUpdateBatch()
	for i := 0; i < 10; i++ {
		doc, _ := json.Marshal(map[string]any{"owner": owners[i%2], "n": i})
		b.Put(fmt.Sprintf("k%02d", i), doc, statedb.Version{BlockNum: 1, TxNum: uint64(i)})
	}
	if err := s.ApplyUpdates(b, statedb.Version{BlockNum: 1, TxNum: 20}); err != nil {
		t.Fatal(err)
	}
}

// mustQuery parses a Mango query document the test holds to be valid.
func mustQuery(t *testing.T, raw []byte) *richquery.Query {
	t.Helper()
	q, err := richquery.ParseQuery(raw)
	if err != nil {
		t.Fatalf("query %s: %v", raw, err)
	}
	return q
}

func queryStub(state statedb.StateDB) *Stub {
	return NewStub(Config{
		TxID: "tq", ChannelID: "ch", Function: "q",
		Creator: []byte("creator"), Timestamp: time.Unix(1570000000, 0),
		State: state,
	})
}

// One stub query answers alike on every state reader: a Store that scans,
// a Store that reads its index, and the ReferenceStore oracle.
func TestGetQueryResultSameOnEveryReader(t *testing.T) {
	plain, indexed := queryFixture(t)
	reference := statedb.NewReference()
	seedQueryDocs(t, reference)
	for _, query := range []string{
		`{"selector":{"owner":"alice"}}`,
		`{"selector":{"n":{"$gte":3,"$lt":8}},"sort":[{"n":"desc"}]}`,
		`{"owner":{"$in":["bob"]}}`, // bare selector form
	} {
		a := stubQueryKeys(t, queryStub(plain), query)
		if len(a) == 0 {
			t.Errorf("query %s returned nothing", query)
		}
		for name, state := range map[string]statedb.StateDB{"indexed": indexed, "reference": reference} {
			if b := stubQueryKeys(t, queryStub(state), query); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Errorf("query %s: plain %v != %s %v", query, a, name, b)
			}
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
	res, err := indexed.ExecuteQuery(mustQuery(t, rws.QueryReads[0].Query))
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

// stubReads runs one of every read over the query fixture, then reads back
// a staged write and a staged delete, and returns what each call returned.
func stubReads(t *testing.T, s *Stub) []string {
	t.Helper()
	var out []string
	note := func(v any, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%q", v))
	}
	note(s.GetState("k01"))
	note(s.GetState("absent"))
	note(s.GetStateByRange("k02", "k05"))
	kvs, next, err := s.GetStateByRangeWithPagination("k05", "", 2, "")
	note([]any{kvs, next}, err)
	note(s.GetQueryResult(`{"selector":{"owner":"bob"}}`))
	kvs, next, err = s.GetQueryResultWithPagination(`{"selector":{"owner":"alice"}}`, 2, "")
	note([]any{kvs, next}, err)
	if err := s.PutState("k08", []byte("staged")); err != nil {
		t.Fatal(err)
	}
	if err := s.DelState("k09"); err != nil {
		t.Fatal(err)
	}
	note(s.GetState("k08"))
	note(s.GetState("k09"))
	return out
}

// A query stub answers every read as an endorsement's does and reads its
// own writes back, but records no read, range read or query read; the
// default stub records all of them.
func TestQueryStubRecordsNoReads(t *testing.T) {
	_, indexed := queryFixture(t)
	endorse := queryStub(indexed)
	query := NewStub(Config{State: indexed, Query: true})
	got, want := stubReads(t, query), stubReads(t, endorse)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("query stub read\n%v\nendorsement stub read\n%v", got, want)
	}
	if got[len(got)-2] != `"staged"` || got[len(got)-1] != `""` {
		t.Errorf("staged writes read back as %v", got[len(got)-2:])
	}

	v := func(tx uint64) *statedb.Version { return &statedb.Version{BlockNum: 1, TxNum: tx} }
	wire := func(query string, limit int) json.RawMessage {
		q, err := richquery.ParseQuery([]byte(query))
		if err != nil {
			t.Fatal(err)
		}
		q.Limit = limit
		raw, err := q.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	writes := []rwset.Write{{Key: "k08", Value: []byte("staged")}, {Key: "k09", IsDelete: true}}
	full := &rwset.ReadWriteSet{
		Reads: []rwset.Read{{Key: "absent"}, {Key: "k00", Version: v(0)}, {Key: "k01", Version: v(1)},
			{Key: "k02", Version: v(2)}, {Key: "k03", Version: v(3)}, {Key: "k05", Version: v(5)},
			{Key: "k07", Version: v(7)}, {Key: "k09", Version: v(9)}},
		Writes: writes,
		RangeReads: []rwset.RangeRead{
			{StartKey: "k02", EndKey: "k05", Keys: []string{"k02", "k03", "k04"}},
			{StartKey: "k05", EndKey: "k07", Keys: []string{"k05", "k06"}},
		},
		QueryReads: []rwset.QueryRead{
			{Query: wire(`{"selector":{"owner":"bob"}}`, 0), Keys: []string{"k01", "k03", "k05", "k07", "k09"}},
			{Query: wire(`{"selector":{"owner":"alice"}}`, 2), Keys: []string{"k00", "k02"}},
		},
	}
	if rws := endorse.RWSet(); !reflect.DeepEqual(rws, full) {
		t.Errorf("endorsement rwset\n%+v\nwant\n%+v", rws, full)
	}
	if rws := query.RWSet(); !reflect.DeepEqual(rws, &rwset.ReadWriteSet{Writes: writes}) {
		t.Errorf("query rwset %+v, want the staged writes alone", rws)
	}
}
