package provenance

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// newIndexedLedger runs the harness on the CouchDB-flavour store with the
// contract's declared indexes installed, as the peer does in production.
func newIndexedLedger(t testing.TB) *ledger {
	t.Helper()
	state, err := statedb.NewIndexed()
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range New().Indexes() {
		if err := state.DefineIndexes([]richquery.IndexDef{def}); err != nil {
			t.Fatal(err)
		}
	}
	return newLedgerOn(t, state)
}

// bothLedgers returns the scan-path and index-path harnesses; tests run
// every query against both and require identical answers (the subsystem's
// core acceptance property).
func bothLedgers(t *testing.T) map[string]*ledger {
	t.Helper()
	return map[string]*ledger{"scan": newLedger(t), "indexed": newIndexedLedger(t)}
}

func recordKeys(t *testing.T, resp shim.Response) []string {
	t.Helper()
	if resp.Status != shim.OK {
		t.Fatalf("query failed: %s", resp.Message)
	}
	var recs []Record
	if err := json.Unmarshal(resp.Payload, &recs); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	return keys
}

// populate stores the same mixed fixture on a ledger: two "types", parent
// edges, one deletion, one overwrite.
func populate(t *testing.T, l *ledger) {
	t.Helper()
	for i := 0; i < 8; i++ {
		typ := "raw"
		if i%3 == 0 {
			typ = "aggregate"
		}
		in, err := json.Marshal(setArgs{
			Key:      fmt.Sprintf("item-%d", i),
			Checksum: fmt.Sprintf("cs-%d", i),
			Meta:     map[string]string{"type": typ, "step": fmt.Sprint(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp := l.invoke(FnSet, string(in)); resp.Status != shim.OK {
			t.Fatalf("set: %s", resp.Message)
		}
	}
	// Overwrite one record and delete another: indexes must follow.
	in, _ := json.Marshal(setArgs{Key: "item-1", Checksum: "cs-1b",
		Meta: map[string]string{"type": "aggregate"}})
	if resp := l.invoke(FnSet, string(in)); resp.Status != shim.OK {
		t.Fatalf("overwrite: %s", resp.Message)
	}
	if resp := l.invoke(FnDelete, "item-5"); resp.Status != shim.OK {
		t.Fatalf("delete: %s", resp.Message)
	}
}

func TestRichQueriesIndexedMatchesScan(t *testing.T) {
	ledgers := bothLedgers(t)
	for _, l := range ledgers {
		populate(t, l)
	}
	owner := "x509::CN=tester,O=Org1,OU=client"

	queries := []struct {
		name string
		run  func(l *ledger) shim.Response
	}{
		{"getByOwner", func(l *ledger) shim.Response { return l.query(FnGetByOwner, owner) }},
		{"getByOwner-miss", func(l *ledger) shim.Response { return l.query(FnGetByOwner, "nobody") }},
		{"getByType-raw", func(l *ledger) shim.Response { return l.query(FnGetByType, "raw") }},
		{"getByType-agg", func(l *ledger) shim.Response { return l.query(FnGetByType, "aggregate") }},
		{"getByCreator", func(l *ledger) shim.Response { return l.query(FnGetByCreator, owner) }},
		{"queryMeta", func(l *ledger) shim.Response { return l.query(FnQueryMeta, "type", "raw") }},
		// Empty value has always meant "records lacking the key" (missing
		// map reads yield ""): both paths must preserve that.
		{"queryMeta-empty", func(l *ledger) shim.Response { return l.query(FnQueryMeta, "absent-key", "") }},
		{"timeRange", func(l *ledger) shim.Response {
			return l.query(FnGetByTimeRange, "2019-10-02T00:00:00Z", "2039-01-01T00:00:00Z")
		}},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			scan := recordKeys(t, q.run(ledgers["scan"]))
			indexed := recordKeys(t, q.run(ledgers["indexed"]))
			if fmt.Sprint(scan) != fmt.Sprint(indexed) {
				t.Errorf("scan path %v != indexed path %v", scan, indexed)
			}
		})
	}

	// Sanity on content, not just equality: the deleted record is gone and
	// the overwritten record changed type.
	byType := recordKeys(t, ledgers["indexed"].query(FnGetByType, "raw"))
	for _, k := range byType {
		if k == "item-5" || k == "item-1" {
			t.Errorf("stale index entry %q in %v", k, byType)
		}
	}
	mine := recordKeys(t, ledgers["indexed"].query(FnGetByOwner, owner))
	if len(mine) != 7 { // 8 stored - 1 deleted
		t.Errorf("owner has %d records, want 7: %v", len(mine), mine)
	}
}

func TestRichQueryFunction(t *testing.T) {
	for name, l := range bothLedgers(t) {
		t.Run(name, func(t *testing.T) {
			populate(t, l)
			resp := l.query(FnRichQuery,
				`{"selector":{"meta.type":"aggregate"},"sort":[{"ts":"desc"}]}`)
			if resp.Status != shim.OK {
				t.Fatalf("richQuery: %s", resp.Message)
			}
			var page QueryPage
			if err := json.Unmarshal(resp.Payload, &page); err != nil {
				t.Fatal(err)
			}
			if len(page.Records) != 4 { // items 0,3,6 plus overwritten item-1
				t.Errorf("aggregate records = %d: %+v", len(page.Records), page.Records)
			}
			for i := 1; i < len(page.Records); i++ {
				if page.Records[i-1].TSMillis < page.Records[i].TSMillis {
					t.Errorf("descending ts sort violated at %d", i)
				}
			}

			// Explicit pagination walks the full result without duplicates.
			var all []string
			bookmark := ""
			for pageN := 0; ; pageN++ {
				resp := l.query(FnRichQuery, `{"selector":{"owner":{"$regex":"tester"}}}`, "3", bookmark)
				if resp.Status != shim.OK {
					t.Fatalf("paged richQuery: %s", resp.Message)
				}
				var p QueryPage
				if err := json.Unmarshal(resp.Payload, &p); err != nil {
					t.Fatal(err)
				}
				for _, r := range p.Records {
					all = append(all, r.Key)
				}
				if p.Next == "" {
					break
				}
				bookmark = p.Next
				if pageN > 5 {
					t.Fatal("pagination did not terminate")
				}
			}
			if len(all) != 7 {
				t.Errorf("paged %d records, want 7", len(all))
			}

			// Bad inputs.
			if resp := l.query(FnRichQuery, `{"selector":{"a":{"$no":1}}}`); resp.Status == shim.OK {
				t.Error("bad selector accepted")
			}
			if resp := l.query(FnRichQuery, `{}`, "zero", ""); resp.Status == shim.OK {
				t.Error("bad page size accepted")
			}
			if resp := l.query(FnGetByTimeRange, "not-a-time", "2039-01-01T00:00:00Z"); resp.Status == shim.OK {
				t.Error("bad time accepted")
			}
		})
	}
}

// TestIndexDeclarations pins the contract's index set: these names are part
// of the deployment contract (the peer namespaces them per chaincode).
func TestIndexDeclarations(t *testing.T) {
	defs := New().Indexes()
	want := map[string]string{
		"by-owner":           "owner",
		"by-display-creator": "creator",
		"by-type":            "meta.type",
		"by-time":            "ts",
	}
	if len(defs) != len(want) {
		t.Fatalf("declared %d indexes, want %d", len(defs), len(want))
	}
	for _, def := range defs {
		if err := def.Validate(); err != nil {
			t.Errorf("index %q invalid: %v", def.Name, err)
		}
		if want[def.Name] != def.Field {
			t.Errorf("index %q covers %q, want %q", def.Name, def.Field, want[def.Name])
		}
	}
	var _ richquery.IndexDef = defs[0]
}

// equalitySelector renders its query by hand; the text must be what
// json.Marshal renders for the nested maps, escapes included, in the field
// name as in the value.
func TestEqualitySelectorMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"raw", "", `say "hi"`, `back\slash`, "<b>", "a&b", "ctl\x00\x01\x1f\n\t\x7f",
		"naïve ✓ 日本", "bad\xff\xfe utf-8 \xc3", "  ",
	} {
		for _, field := range []string{"owner", "meta." + s} {
			want, err := json.Marshal(map[string]any{
				"selector": map[string]any{field: map[string]any{"$eq": s}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := equalitySelector(field, s); got != string(want) {
				t.Errorf("equalitySelector(%q, %q)\n= %s\nwant %s", field, s, got, want)
			}
		}
	}
}
