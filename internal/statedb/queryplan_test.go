package statedb

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/richquery"
)

// A rich query has three ways to run: an exact index range (no document
// read), an index range re-checked per document, and a filtered scan.
// These tests pin all three to one answer, with the single-lock
// ReferenceStore's filtered scan as the oracle.

// queryStores is one corpus held three ways.
type queryStores struct {
	indexed *Store          // indexes on the queried fields
	plain   *Store          // same engine, no index: always scans
	ref     *ReferenceStore // oracle: always a filtered scan
	block   uint64
}

func newQueryStores(t *testing.T, defs ...richquery.IndexDef) *queryStores {
	return &queryStores{indexed: mustIndexed(t, defs...), plain: mustIndexed(t), ref: NewReference()}
}

func (qs *queryStores) apply(t *testing.T, b *UpdateBatch) {
	t.Helper()
	qs.block++
	h := Version{BlockNum: qs.block, TxNum: 1 << 20}
	for _, s := range []StateDB{qs.indexed, qs.plain, qs.ref} {
		if err := s.ApplyUpdates(cloneBatch(b), h); err != nil {
			t.Fatal(err)
		}
	}
}

// page is what a caller sees of one result page.
type page struct {
	KVs      []KV
	Bookmark string
}

// walk runs query to exhaustion, following bookmarks.
func walk(t *testing.T, run func(*richquery.Query) (*QueryResult, error), query map[string]any) []page {
	t.Helper()
	var pages []page
	for {
		raw, err := json.Marshal(query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(mustQuery(t, string(raw)))
		if err != nil {
			t.Fatalf("query %s: %v", raw, err)
		}
		pages = append(pages, page{res.KVs, res.Bookmark})
		if res.Bookmark == "" {
			return pages
		}
		if len(pages) > 1000 {
			t.Fatalf("query %s: bookmarks do not terminate", raw)
		}
		query["bookmark"] = res.Bookmark
	}
}

// agree walks query on all three stores and requires identical pages.
func (qs *queryStores) agree(t *testing.T, query map[string]any) []page {
	t.Helper()
	clone := func() map[string]any {
		c := make(map[string]any, len(query)+1)
		for k, v := range query {
			c[k] = v
		}
		return c
	}
	raw, _ := json.Marshal(query)
	want := walk(t, qs.ref.ExecuteQuery, clone())
	if got := walk(t, qs.indexed.ExecuteQuery, clone()); !reflect.DeepEqual(got, want) {
		t.Fatalf("query %s:\nindexed   %v\nreference %v", raw, pageKeys(got), pageKeys(want))
	}
	if got := walk(t, qs.plain.ExecuteQuery, clone()); !reflect.DeepEqual(got, want) {
		t.Fatalf("query %s:\nunindexed %v\nreference %v", raw, pageKeys(got), pageKeys(want))
	}
	return want
}

func pageKeys(pages []page) [][]string {
	out := make([][]string, len(pages))
	for i, p := range pages {
		out[i] = keysOf(p.KVs)
	}
	return out
}

// TestQuerySignedZero: Compare calls -0.0 and 0 equal, so an index range
// for either must hold both (EncodeKey once gave them different keys and the
// indexed store returned one document where the scan returned two).
func TestQuerySignedZero(t *testing.T) {
	qs := newQueryStores(t, richquery.IndexDef{Name: "by-n", Field: "n"})
	b := NewUpdateBatch()
	b.Put("neg", []byte(`{"n":-0.0}`), Version{BlockNum: 1})
	b.Put("pos", []byte(`{"n":0}`), Version{BlockNum: 1, TxNum: 1})
	b.Put("one", []byte(`{"n":1}`), Version{BlockNum: 1, TxNum: 2})
	b.Put("tiny", []byte(`{"n":-5e-324}`), Version{BlockNum: 1, TxNum: 3})
	qs.apply(t, b)
	for _, tc := range []struct {
		selector string
		want     []string
	}{
		{`{"n":{"$eq":0}}`, []string{"neg", "pos"}},
		{`{"n":-0.0}`, []string{"neg", "pos"}},
		{`{"n":{"$gt":-0.0}}`, []string{"one"}},
		{`{"n":{"$lt":0}}`, []string{"tiny"}},
		{`{"n":{"$gte":0,"$lte":-0.0}}`, []string{"neg", "pos"}},
		{`{"n":{"$in":[0]}}`, []string{"neg", "pos"}}, // bounded by the index, re-checked
	} {
		pages := qs.agree(t, map[string]any{"selector": json.RawMessage(tc.selector)})
		if got := keysOf(pages[0].KVs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("selector %s = %v, want %v", tc.selector, got, tc.want)
		}
	}
}

// Generators: values chosen so every collation band, both zeros, numbers
// float64 cannot tell apart from their neighbours' encodings (large ts) and
// non-scalars all land on the indexed paths.

var planValues = []any{
	nil, false, true,
	math.Copysign(0, -1), 0.0, 1.0, -1.0, 2.5, -2.5, 5e-324, -5e-324,
	1.7e12, 1.7e12 + 1, 1700000000123.0, float64(1 << 53), -float64(1 << 53),
	"", "a", "ab", "b", "a\x00", "é",
	[]any{}, []any{1.0}, []any{"a", nil},
	map[string]any{}, map[string]any{"x": 1.0},
}

func planValue(rng *rand.Rand) any { return planValues[rng.Intn(len(planValues))] }

// planScalar draws a value the planner may turn into a bound.
func planScalar(rng *rand.Rand) any {
	for {
		switch v := planValue(rng).(type) {
		case []any, map[string]any:
		default:
			return v
		}
	}
}

func planDoc(rng *rand.Rand) []byte {
	d := map[string]any{}
	for _, f := range []string{"a", "b"} {
		if rng.Intn(5) > 0 {
			d[f] = planValue(rng)
		}
	}
	switch rng.Intn(4) {
	case 0: // m missing
	case 1:
		d["m"] = planValue(rng) // m.x behind a non-object, mostly
	default:
		d["m"] = map[string]any{"x": planValue(rng)}
	}
	raw, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return raw
}

var planOps = []string{"$eq", "$gt", "$gte", "$lt", "$lte"}

// coveredSelector is a conjunction of scalar comparisons on one field, in
// one of the spellings the parser accepts.
func coveredSelector(rng *rand.Rand, field string) map[string]any {
	ops := map[string]any{}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		ops[planOps[rng.Intn(len(planOps))]] = planScalar(rng)
	}
	switch rng.Intn(4) {
	case 0:
		return map[string]any{field: planScalar(rng)} // implicit $eq
	case 1:
		return map[string]any{"$and": []any{
			map[string]any{field: ops},
			map[string]any{field: map[string]any{planOps[rng.Intn(len(planOps))]: planScalar(rng)}},
		}}
	case 2:
		if head, tail, nested := strings.Cut(field, "."); nested {
			return map[string]any{head: map[string]any{tail: ops}} // sub-field form
		}
	}
	return map[string]any{field: ops}
}

// uncoveredSelector needs the documents: a second field, $or, $in, $regex
// or a non-scalar operand.
func uncoveredSelector(rng *rand.Rand, field string) map[string]any {
	sel := coveredSelector(rng, field)
	switch rng.Intn(6) {
	case 0:
		sel["b"] = map[string]any{"$gte": planScalar(rng)}
	case 1:
		return map[string]any{"$or": []any{sel, coveredSelector(rng, "b")}}
	case 2:
		return map[string]any{field: map[string]any{"$in": []any{planValue(rng), planValue(rng)}}}
	case 3:
		return map[string]any{field: map[string]any{"$regex": "^a", "$gte": ""}}
	case 4:
		return map[string]any{field: map[string]any{"$lte": planValue(rng), "$gt": nil}}
	default:
		return map[string]any{"$and": []any{sel, map[string]any{"$or": []any{coveredSelector(rng, field)}}}}
	}
	return sel
}

func TestPropertyQueryPlansAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	reg := metrics.NewRegistry()
	for round := 0; round < 12; round++ {
		qs := newQueryStores(t,
			richquery.IndexDef{Name: "by-a", Field: "a"}, richquery.IndexDef{Name: "by-mx", Field: "m.x"})
		qs.indexed.SetMetrics(reg)
		// Overwrites, deletes, values that are not documents and composite
		// keys all reach the index maintenance.
		for blocks := 1 + rng.Intn(4); blocks > 0; blocks-- {
			b := NewUpdateBatch()
			for i := 0; i < 60; i++ {
				key := fmt.Sprintf("k%02d", rng.Intn(70))
				ver := Version{BlockNum: qs.block + 1, TxNum: uint64(i)}
				switch rng.Intn(12) {
				case 0:
					b.Delete(key, ver)
				case 1:
					b.Put(key, []byte("not json"), ver)
				case 2:
					b.Put(key, []byte(`[{"a":1}]`), ver)
				case 3:
					ck, _ := CreateCompositeKey("edge", []string{key})
					b.Put(ck, planDoc(rng), ver)
				default:
					b.Put(key, planDoc(rng), ver)
				}
			}
			qs.apply(t, b)
		}
		for n := 0; n < 150; n++ {
			field := []string{"a", "m.x"}[rng.Intn(2)]
			query := map[string]any{}
			if rng.Intn(2) == 0 {
				query["selector"] = coveredSelector(rng, field)
			} else {
				query["selector"] = uncoveredSelector(rng, field)
			}
			if rng.Intn(3) == 0 {
				query["limit"] = 1 + rng.Intn(9)
			}
			if rng.Intn(4) == 0 {
				dir := []string{"asc", "desc"}[rng.Intn(2)]
				query["sort"] = []any{map[string]string{[]string{"a", "b", "m.x"}[rng.Intn(3)]: dir}}
			}
			qs.agree(t, query)
		}
	}
	// The generators must have reached both sides of the fork.
	snap := reg.Snapshot()
	if snap[metrics.StateQueriesExactRange] < 100 || snap[metrics.StateQueryDocsDecoded] < 100 {
		t.Fatalf("plans not exercised: %d exact-range queries, %d documents decoded",
			snap[metrics.StateQueriesExactRange], snap[metrics.StateQueryDocsDecoded])
	}
}

// TestQueryDecodeCounters pins what each plan costs, as the peer's registry
// reports it: an exact range reads no document, a re-checked range reads its
// candidates, a scan reads every document.
func TestQueryDecodeCounters(t *testing.T) {
	s := mustIndexed(t, richquery.IndexDef{Name: "by-type", Field: "type"})
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)
	b := NewUpdateBatch()
	for i := 0; i < 40; i++ {
		doc := fmt.Sprintf(`{"type":"t%d","n":%d}`, i%4, i)
		b.Put(fmt.Sprintf("k%02d", i), []byte(doc), Version{BlockNum: 1, TxNum: uint64(i)})
	}
	if err := s.ApplyUpdates(b, Version{BlockNum: 1, TxNum: 40}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query          string
		results        int
		decoded, exact int64
	}{
		{`{"selector":{"type":"t1"}}`, 10, 0, 1},
		{`{"selector":{"type":{"$gte":"t2"}},"limit":3}`, 3, 0, 1},
		{`{"selector":{"type":"t1","n":{"$lt":20}}}`, 5, 10, 0},
		{`{"selector":{"type":"t1"},"sort":[{"n":"desc"}]}`, 10, 10, 0},
		{`{"selector":{"type":{"$in":["t0","t3"]}}}`, 20, 40, 0}, // envelope t0..t3
		{`{"selector":{"n":{"$lt":4}}}`, 4, 40, 0},
	} {
		before := reg.Snapshot()
		if got := len(queryKeys(t, s, tc.query)); got != tc.results {
			t.Errorf("%s: %d results, want %d", tc.query, got, tc.results)
		}
		after := reg.Snapshot()
		if got := after[metrics.StateQueryDocsDecoded] - before[metrics.StateQueryDocsDecoded]; got != tc.decoded {
			t.Errorf("%s: decoded %d documents, want %d", tc.query, got, tc.decoded)
		}
		if got := after[metrics.StateQueriesExactRange] - before[metrics.StateQueriesExactRange]; got != tc.exact {
			t.Errorf("%s: exact-range count moved by %d, want %d", tc.query, got, tc.exact)
		}
	}
	// Detaching leaves the store usable and the registry untouched.
	s.SetMetrics(nil)
	before := reg.Snapshot()
	queryKeys(t, s, `{"selector":{"type":"t1"}}`)
	if after := reg.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("detached store still counts: %v -> %v", before, after)
	}
}
