package richquery

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// naiveRange recomputes what the index should contain by brute force.
func naiveRange(docs map[string]map[string]any, field string, low, high Bound) []string {
	type pair struct{ ckey, key string }
	var pairs []pair
	for key, d := range docs {
		val, ok := Lookup(d, splitPath(field))
		if !ok {
			continue
		}
		ck := EncodeKey(val)
		if low.Set {
			if low.Inclusive && ck < low.CKey {
				continue
			}
			if !low.Inclusive && ck <= low.CKey {
				continue
			}
		}
		if high.Set {
			if high.Inclusive && ck > high.CKey {
				continue
			}
			if !high.Inclusive && ck >= high.CKey {
				continue
			}
		}
		pairs = append(pairs, pair{ckey: ck, key: key})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].ckey != pairs[j].ckey {
			return pairs[i].ckey < pairs[j].ckey
		}
		return pairs[i].key < pairs[j].key
	})
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p.key
	}
	return out
}

// TestBuildIndexesOnePass builds several indexes in one pass — two on one
// field, one on a field nested under another's, one no document has — over
// random documents, a non-document and an invalid one, and holds each to the
// brute-force recomputation of its field.
func TestBuildIndexesOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	docs := map[string]map[string]any{}
	cands := []Candidate{{Key: "scalar", Value: []byte(`7`)}, {Key: "torn", Value: []byte(`{"a":1,`)}}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%03d", i)
		docs[key] = randDoc(rng)
		cands = append(cands, cand(t, key, docs[key]))
	}
	defs := []IndexDef{{Name: "by-a", Field: "a"}, {Name: "by-m", Field: "m"}, {Name: "again-a", Field: "a"},
		{Name: "by-m.x", Field: "m.x"}, {Name: "by-b", Field: "b"}, {Name: "none", Field: "z.y"}}
	for i, ix := range BuildIndexes(defs, cands) {
		if ix.Def() != defs[i] {
			t.Fatalf("index %d is %+v, want %+v", i, ix.Def(), defs[i])
		}
		got, want := ix.Range(Bound{}, Bound{}), naiveRange(docs, defs[i].Field, Bound{}, Bound{})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s holds %v, want %v", defs[i].Name, got, want)
		}
	}
}

// TestIndexMaintenanceSequences drives random put/update/delete/re-add
// sequences and checks the index against a brute-force recomputation after
// every operation.
func TestIndexMaintenanceSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ix := BuildIndexes([]IndexDef{{Name: "by-a", Field: "a"}}, nil)[0]
	docs := map[string]map[string]any{}
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}

	for step := 0; step < 2000; step++ {
		key := keys[rng.Intn(len(keys))]
		switch rng.Intn(4) {
		case 0: // delete
			delete(docs, key)
			ix = ix.Update([]string{key}, func(int) (any, bool) { return nil, false })
		case 1: // doc losing the indexed field
			d := map[string]any{"b": randValue(rng)}
			docs[key] = d
			putDoc(t, &ix, key, d)
		default: // put / update with the field
			d := map[string]any{"a": randValue(rng), "b": randValue(rng)}
			docs[key] = d
			putDoc(t, &ix, key, d)
		}

		want := naiveRange(docs, "a", Bound{}, Bound{})
		got := ix.Range(Bound{}, Bound{})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: index %v != reference %v", step, got, want)
		}
	}

	// Range bounds against the final corpus.
	for trial := 0; trial < 200; trial++ {
		lo := Bound{CKey: EncodeKey(randValue(rng)), Inclusive: rng.Intn(2) == 0, Set: rng.Intn(3) > 0}
		hi := Bound{CKey: EncodeKey(randValue(rng)), Inclusive: rng.Intn(2) == 0, Set: rng.Intn(3) > 0}
		want := naiveRange(docs, "a", lo, hi)
		got := ix.Range(lo, hi)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("bounds %+v %+v: index %v != reference %v", lo, hi, got, want)
		}
	}
}

// TestApplyPaginationWalksEverything pages through a corpus with bookmarks
// and checks the union equals one unbounded execution, without duplicates,
// for both key order and descending field sort.
func TestApplyPaginationWalksEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var cands []Candidate
	for i := 0; i < 57; i++ {
		cands = append(cands, cand(t, fmt.Sprintf("k%03d", i),
			map[string]any{"a": randValue(rng), "b": float64(rng.Intn(10))}))
	}
	for _, sortSpec := range []string{``, `,"sort":[{"b":"desc"}]`, `,"sort":[{"a":"asc"},{"b":"desc"}]`} {
		full := mustQuery(t, `{"selector":{"b":{"$gte":0}}`+sortSpec+`}`)
		allKeys, bm, err := Apply(full, cands)
		if err != nil {
			t.Fatal(err)
		}
		if bm != "" {
			t.Fatalf("unbounded query returned bookmark %q", bm)
		}

		var paged []string
		bookmark := ""
		for page := 0; ; page++ {
			q := mustQuery(t, `{"selector":{"b":{"$gte":0}}`+sortSpec+`,"limit":7}`)
			q.Bookmark = bookmark
			keys, next, err := Apply(q, cands)
			if err != nil {
				t.Fatal(err)
			}
			paged = append(paged, keys...)
			if next == "" {
				break
			}
			bookmark = next
			if page > 20 {
				t.Fatal("pagination did not terminate")
			}
		}
		if fmt.Sprint(paged) != fmt.Sprint(allKeys) {
			t.Fatalf("sort %q: paged %v != full %v", sortSpec, paged, allKeys)
		}
	}

	// Invalid bookmark is an error, not a silent restart.
	q := mustQuery(t, `{"selector":{"b":{"$gte":0}},"limit":3}`)
	q.Bookmark = "not base64!!"
	if _, _, err := Apply(q, cands); err == nil {
		t.Error("invalid bookmark accepted")
	}
}

// TestDescendingSortPrefixValues pins the variable-length descending-order
// property: a value must sort after its own prefix under desc (the naive
// byte-inversion-with-fixed-terminator encoding got this wrong).
func TestDescendingSortPrefixValues(t *testing.T) {
	cands := []Candidate{
		{Key: "k1", Value: []byte(`{"owner":"a"}`)},
		{Key: "k2", Value: []byte(`{"owner":"ab"}`)},
		{Key: "k3", Value: []byte(`{"owner":"abc"}`)},
		{Key: "k4", Value: []byte(`{"owner":"b"}`)},
		{Key: "k5", Value: []byte(`{"other":true}`)}, // missing sort field
	}
	q := mustQuery(t, `{"selector":{},"sort":[{"owner":"desc"}]}`)
	keys, _, err := Apply(q, cands)
	if err != nil {
		t.Fatal(err)
	}
	// Descending: b > abc > ab > a, missing last.
	want := "[k4 k3 k2 k1 k5]"
	if fmt.Sprint(keys) != want {
		t.Fatalf("desc order = %v, want %s", keys, want)
	}

	// Ascending mirror: missing first, then prefix before extension.
	q = mustQuery(t, `{"selector":{},"sort":[{"owner":"asc"}]}`)
	keys, _, err = Apply(q, cands)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[k5 k1 k2 k3 k4]" {
		t.Fatalf("asc order = %v", keys)
	}

	// Values containing 0x00/0x01 (the escaped bytes) still order and
	// paginate correctly in both directions.
	cands = []Candidate{
		{Key: "k1", Value: []byte(`{"owner":"x"}`)},
		{Key: "k2", Value: []byte(`{"owner":"x\u0000y"}`)},
		{Key: "k3", Value: []byte(`{"owner":"x\u0001"}`)},
	}
	q = mustQuery(t, `{"selector":{},"sort":[{"owner":"desc"}]}`)
	keys, _, err = Apply(q, cands)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[k3 k2 k1]" {
		t.Fatalf("desc order with control bytes = %v", keys)
	}
}

// TestDescendingSortReversesAscending checks the general property on
// random corpora: desc order is the exact reverse of asc order whenever
// the sort key is unique per document (distinct values; key tiebreak does
// not reverse, matching CouchDB, so duplicates are excluded).
func TestDescendingSortReversesAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 200; iter++ {
		seen := map[string]bool{}
		var cands []Candidate
		for i := 0; len(cands) < 12 && i < 60; i++ {
			v := randValue(rng)
			ck := EncodeKey(v)
			if seen[ck] {
				continue
			}
			seen[ck] = true
			cands = append(cands, cand(t, fmt.Sprintf("k%02d", i), map[string]any{"a": v}))
		}
		asc, _, err := Apply(mustQuery(t, `{"selector":{},"sort":[{"a":"asc"}]}`), cands)
		if err != nil {
			t.Fatal(err)
		}
		desc, _, err := Apply(mustQuery(t, `{"selector":{},"sort":[{"a":"desc"}]}`), cands)
		if err != nil {
			t.Fatal(err)
		}
		for i := range asc {
			if asc[i] != desc[len(desc)-1-i] {
				t.Fatalf("iter %d: desc %v is not the reverse of asc %v", iter, desc, asc)
			}
		}
	}
}

func mustQuery(t *testing.T, raw string) *Query {
	t.Helper()
	q, err := ParseQuery([]byte(raw))
	if err != nil {
		t.Fatalf("parse %s: %v", raw, err)
	}
	return q
}

// TestPlannerBounds spot-checks bound extraction and index choice.
func TestPlannerBounds(t *testing.T) {
	sel := MustSelector(`{"a":{"$gte":3,"$lt":9},"b":1}`)
	low, high, ok := sel.FieldBounds("a")
	if !ok || !low.Set || !low.Inclusive || !high.Set || high.Inclusive {
		t.Fatalf("bounds = %+v %+v ok=%v", low, high, ok)
	}
	if low.CKey != EncodeKey(float64(3)) || high.CKey != EncodeKey(float64(9)) {
		t.Error("bound keys wrong")
	}

	// $or must not contribute bounds.
	sel = MustSelector(`{"$or":[{"a":1},{"b":2}]}`)
	if _, _, ok := sel.FieldBounds("a"); ok {
		t.Error("$or branch contributed index bounds")
	}

	// $in produces a min/max envelope.
	sel = MustSelector(`{"a":{"$in":[5,2,9]}}`)
	low, high, ok = sel.FieldBounds("a")
	if !ok || low.CKey != EncodeKey(float64(2)) || high.CKey != EncodeKey(float64(9)) {
		t.Errorf("$in bounds = %+v %+v ok=%v", low, high, ok)
	}

	// Planner prefers equality over range, and honors use_index.
	built := BuildIndexes([]IndexDef{{Name: "by-a", Field: "a"}, {Name: "by-b", Field: "b"}}, nil)
	ixA, ixB := built[0], built[1]
	q := mustQuery(t, `{"selector":{"a":{"$gt":1},"b":7}}`)
	plan := ChooseIndex(q, []Index{ixA, ixB})
	if plan.Index == nil || plan.Index.Def().Name != "by-b" {
		t.Errorf("planner chose %+v, want equality index by-b", plan.Index)
	}
	q = mustQuery(t, `{"selector":{"a":{"$gt":1},"b":7},"use_index":"by-a"}`)
	plan = ChooseIndex(q, []Index{ixA, ixB})
	if plan.Index == nil || plan.Index.Def().Name != "by-a" {
		t.Error("use_index not honored")
	}

	// use_index also matches namespace-qualified registered names, as the
	// peer registers chaincode-declared indexes ("<chaincode>.<name>").
	ixNS := BuildIndexes([]IndexDef{{Name: "hyperprov.by-a", Field: "a"}}, nil)[0]
	q = mustQuery(t, `{"selector":{"a":{"$gt":1},"b":7},"use_index":"by-a"}`)
	plan = ChooseIndex(q, []Index{ixNS, ixB})
	if plan.Index == nil || plan.Index.Def().Name != "hyperprov.by-a" {
		t.Error("use_index did not match namespaced index name")
	}

	// Unconstrained: no index.
	q = mustQuery(t, `{"selector":{"c":1}}`)
	if plan := ChooseIndex(q, []Index{ixA, ixB}); plan.Index != nil {
		t.Error("planner picked an index for an unconstrained field")
	}
}

// TestPlannerExactShapes pins which queries the planner answers from the
// index range alone. Exact is a promise that no candidate needs its
// document, so every shape that could match outside the range, or that
// orders by document content, must stay on the re-check path.
func TestPlannerExactShapes(t *testing.T) {
	indexes := BuildIndexes([]IndexDef{{Name: "by-type", Field: "meta.type"}, {Name: "by-ts", Field: "ts"}}, nil)
	for _, tc := range []struct {
		query string
		index string // "" when the query must scan
		exact bool
	}{
		{`{"selector":{"meta.type":"raw"}}`, "by-type", true},
		{`{"selector":{"meta.type":{"$eq":"raw"}}}`, "by-type", true},
		{`{"selector":{"meta":{"type":"raw"}}}`, "by-type", true},
		{`{"selector":{"ts":{"$gte":10,"$lt":20}}}`, "by-ts", true},
		{`{"selector":{"ts":{"$gt":null}}}`, "by-ts", true},
		{`{"selector":{"ts":{"$lte":true}}}`, "by-ts", true},
		{`{"selector":{"$and":[{"ts":{"$gt":1}},{"ts":{"$lte":9}},{"$and":[{"ts":5}]}]}}`, "by-ts", true},
		{`{"selector":{"ts":{"$gt":5,"$lt":1}}}`, "by-ts", true}, // empty range, exactly
		{`{"selector":{"ts":{"$gte":10}},"limit":5}`, "by-ts", true},
		{`{"selector":{"ts":{"$gte":10}},"use_index":"by-ts"}`, "by-ts", true},

		{`{"selector":{"ts":{"$gte":10}},"sort":[{"ts":"asc"}]}`, "by-ts", false},
		{`{"selector":{"ts":{"$gte":10}},"sort":["key"]}`, "by-ts", false},
		{`{"selector":{"ts":{"$gte":10},"meta.type":"raw"}}`, "by-type", false},
		{`{"selector":{"ts":{"$gte":10},"owner":"alice"}}`, "by-ts", false},
		{`{"selector":{"meta.type":{"$in":["raw","agg"]}}}`, "by-type", false},
		{`{"selector":{"meta.type":{"$regex":"^r","$gte":"r"}}}`, "by-type", false},
		{`{"selector":{"ts":{"$gte":10,"$lte":[1]}}}`, "by-ts", false},
		{`{"selector":{"ts":{"$gte":10,"$lt":{}}}}`, "by-ts", false},
		{`{"selector":{"$and":[{"ts":{"$gte":10}},{"$or":[{"ts":11}]}]}}`, "by-ts", false},
		{`{"selector":{"meta":{"type":"raw","unit":"C"}}}`, "by-type", false},

		{`{"selector":{"$or":[{"ts":1},{"ts":2}]}}`, "", false},
		{`{"selector":{"ts":[1]}}`, "", false},
		{`{"selector":{"owner":"alice"}}`, "", false},
		{`{"selector":{}}`, "", false},
	} {
		plan := ChooseIndex(mustQuery(t, tc.query), indexes)
		got := ""
		if plan.Index != nil {
			got = plan.Index.Def().Name
		}
		if got != tc.index || plan.Exact != tc.exact {
			t.Errorf("%s: index %q exact %v, want %q %v", tc.query, got, plan.Exact, tc.index, tc.exact)
		}
	}
}

// TestEncodeKeyAgreesWithCompareOnZero: the two float zeros are one number.
func TestEncodeKeyAgreesWithCompareOnZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if Compare(negZero, 0.0) != 0 {
		t.Fatal("Compare tells the zeros apart")
	}
	if EncodeKey(negZero) != EncodeKey(0.0) {
		t.Errorf("EncodeKey(-0.0) = %x, EncodeKey(0.0) = %x", EncodeKey(negZero), EncodeKey(0.0))
	}
	ordered := []float64{math.Inf(-1), -1, -5e-324, 0, 5e-324, 1, math.Inf(1)}
	for i := 1; i < len(ordered); i++ {
		if !(EncodeKey(ordered[i-1]) < EncodeKey(ordered[i])) {
			t.Errorf("EncodeKey(%g) does not sort before EncodeKey(%g)", ordered[i-1], ordered[i])
		}
	}
}

// decodeComponent splits an encoded component off the front of e: the
// component unescaped, and the rest of e after its terminator. It inverts
// encodeComponent, which FuzzIndexEntryOrder checks.
func decodeComponent(e string) (comp, rest string) {
	comp, rest, _ = strings.Cut(e, "\x00")
	return unescape.Replace(comp), rest
}

var unescape = strings.NewReplacer("\x01\x02", "\x00", "\x01\x03", "\x01")

// FuzzIndexEntryOrder pins the property the indexes rest on: an entry,
// encodeComponent(ckey, docKey), compares with another exactly as the pair
// (ckey, docKey) compares with the other pair, and splitting it at its first
// 0x00 and unescaping returns the pair.
func FuzzIndexEntryOrder(f *testing.F) {
	for _, seed := range [][4]string{
		{"a", "k1", "a", "k2"},
		{"a", "k", "ab", "k"},
		{"a", "kz", "ab", "k"},
		{"", "k", "\x00", "k"},
		{"x\x00y", "k", "x\x01", "k"},
		{"x\x01", "", "x", "\x00"},
		{"\x01\x02", "a", "\x00", "b"},
		{EncodeKey(nil), "k", EncodeKey(false), "k"},
		{EncodeKey(-1.5), "k", EncodeKey(0.0), "k"},
		{EncodeKey("ab"), "k\x00", EncodeKey("a"), "k"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, ck1, doc1, ck2, doc2 string) {
		e1, e2 := encodeComponent(ck1, doc1), encodeComponent(ck2, doc2)
		want := strings.Compare(ck1, ck2)
		if want == 0 {
			want = strings.Compare(doc1, doc2)
		}
		if got := strings.Compare(e1, e2); got != want {
			t.Fatalf("(%q,%q) vs (%q,%q): entries compare %d, pairs %d", ck1, doc1, ck2, doc2, got, want)
		}
		for _, p := range [][3]string{{e1, ck1, doc1}, {e2, ck2, doc2}} {
			if ck, doc := decodeComponent(p[0]); ck != p[1] || doc != p[2] {
				t.Fatalf("entry %q splits into (%q,%q), want (%q,%q)", p[0], ck, doc, p[1], p[2])
			}
		}
	})
}
