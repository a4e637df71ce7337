package rwset

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

func indexedFixture(t *testing.T) *statedb.Store {
	t.Helper()
	s, err := statedb.NewIndexed(richquery.IndexDef{Name: "by-owner", Field: "owner"})
	if err != nil {
		t.Fatal(err)
	}
	seedAlice(t, s)
	return s
}

// seedAlice commits three documents owned by alice, k0..k2, into s.
func seedAlice(t *testing.T, s statedb.StateDB) {
	t.Helper()
	b := statedb.NewUpdateBatch()
	for i, key := range []string{"k0", "k1", "k2"} {
		doc, _ := json.Marshal(map[string]any{"owner": "alice", "n": i})
		b.Put(key, doc, statedb.Version{BlockNum: 1, TxNum: uint64(i)})
	}
	if err := s.ApplyUpdates(b, statedb.Version{BlockNum: 1, TxNum: 5}); err != nil {
		t.Fatal(err)
	}
}

func aliceQueryRWS(t *testing.T, s statedb.StateDB) *ReadWriteSet {
	t.Helper()
	query := []byte(`{"selector":{"owner":"alice"}}`)
	q, err := richquery.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecuteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	keys := make([]string, len(res.KVs))
	for i, kv := range res.KVs {
		keys[i] = kv.Key
		v := kv.Version
		b.AddRead(kv.Key, &v)
	}
	b.AddQueryRead(query, keys)
	return b.Build()
}

func TestQueryReadValidates(t *testing.T) {
	s := indexedFixture(t)
	rws := aliceQueryRWS(t, s)
	if len(rws.QueryReads) != 1 || len(rws.QueryReads[0].Keys) != 3 {
		t.Fatalf("rwset = %+v", rws)
	}
	if err := Validate(rws, s, nil); err != nil {
		t.Fatalf("unchanged state should validate: %v", err)
	}

	// Marshal/Unmarshal round trip keeps query reads intact.
	raw := rws.Marshal()
	back, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(back, s, nil); err != nil {
		t.Fatalf("round-tripped rwset should validate: %v", err)
	}
}

// A new record matching the selector commits after simulation: the
// re-executed query sees an extra key, on an indexed Store and on the
// ReferenceStore oracle alike.
func TestQueryReadPhantomDetected(t *testing.T) {
	reference := statedb.NewReference()
	seedAlice(t, reference)
	for _, row := range []struct {
		name string
		s    statedb.StateDB
	}{
		{"indexed", indexedFixture(t)},
		{"reference", reference},
	} {
		t.Run(row.name, func(t *testing.T) {
			rws := aliceQueryRWS(t, row.s)
			b := statedb.NewUpdateBatch()
			doc, _ := json.Marshal(map[string]any{"owner": "alice", "n": 9})
			b.Put("k9", doc, statedb.Version{BlockNum: 2, TxNum: 0})
			if err := row.s.ApplyUpdates(b, statedb.Version{BlockNum: 2, TxNum: 1}); err != nil {
				t.Fatal(err)
			}
			err := Validate(rws, row.s, nil)
			if err == nil || !strings.Contains(err.Error(), "phantom") {
				t.Fatalf("phantom not detected: %v", err)
			}
		})
	}
}

func TestQueryReadResultChangeDetected(t *testing.T) {
	s := indexedFixture(t)
	rws := aliceQueryRWS(t, s)

	// A result document leaves the selector (owner changes): membership
	// shifts and the re-executed key list differs.
	b := statedb.NewUpdateBatch()
	doc, _ := json.Marshal(map[string]any{"owner": "bob", "n": 0})
	b.Put("k0", doc, statedb.Version{BlockNum: 2, TxNum: 0})
	if err := s.ApplyUpdates(b, statedb.Version{BlockNum: 2, TxNum: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(rws, s, nil); err == nil {
		t.Fatal("membership change not detected")
	}
}

func TestQueryReadBlockWriteConflict(t *testing.T) {
	// A key the query observed that was written earlier in the same block
	// conflicts before the query is re-run, here on a Store without
	// indexes, which answers the re-run by filtered scan.
	plain := statedb.New()
	b := statedb.NewUpdateBatch()
	doc, _ := json.Marshal(map[string]any{"owner": "alice"})
	b.Put("k0", doc, statedb.Version{BlockNum: 1, TxNum: 0})
	if err := plain.ApplyUpdates(b, statedb.Version{BlockNum: 1, TxNum: 1}); err != nil {
		t.Fatal(err)
	}
	builder := NewBuilder()
	builder.AddQueryRead([]byte(`{"selector":{"owner":"alice"}}`), []string{"k0"})
	rws := builder.Build()
	if err := Validate(rws, plain, map[string]bool{"k0": true}); err == nil {
		t.Fatal("earlier-in-block write not detected")
	}
	if err := Validate(rws, plain, nil); err != nil {
		t.Fatalf("plain store without conflicts should validate: %v", err)
	}
}
