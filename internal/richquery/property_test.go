package richquery

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// This file holds the property tests: the parsed selector evaluator is
// compared against naiveMatch, an independent straight-from-the-spec
// reference evaluator working on the raw JSON selector, over randomly
// generated documents and selectors.

// naiveMatch evaluates a raw (decoded) Mango selector against doc using
// only the spec: implicit AND across keys, $and/$or combinators, operator
// objects vs nested-field objects, conditions never matching missing
// fields.
func naiveMatch(t *testing.T, sel map[string]any, doc map[string]any) bool {
	t.Helper()
	for k, v := range sel {
		switch k {
		case "$and":
			for _, sub := range v.([]any) {
				if !naiveMatch(t, sub.(map[string]any), doc) {
					return false
				}
			}
		case "$or":
			matched := false
			for _, sub := range v.([]any) {
				if naiveMatch(t, sub.(map[string]any), doc) {
					matched = true
				}
			}
			if !matched {
				return false
			}
		default:
			if !naiveField(t, splitPath(k), v, doc) {
				return false
			}
		}
	}
	return true
}

func splitPath(k string) []string {
	var path []string
	start := 0
	for i := 0; i <= len(k); i++ {
		if i == len(k) || k[i] == '.' {
			path = append(path, k[start:i])
			start = i + 1
		}
	}
	return path
}

func naiveLookup(doc map[string]any, path []string) (any, bool) {
	var cur any = doc
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		if cur, ok = m[p]; !ok {
			return nil, false
		}
	}
	return cur, true
}

func naiveField(t *testing.T, path []string, v any, doc map[string]any) bool {
	if m, ok := v.(map[string]any); ok {
		hasDollar := false
		for k := range m {
			if len(k) > 0 && k[0] == '$' {
				hasDollar = true
			}
		}
		if hasDollar {
			val, present := naiveLookup(doc, path)
			if !present {
				return false
			}
			for op, operand := range m {
				if !naiveOp(t, op, val, operand) {
					return false
				}
			}
			return true
		}
		// Nested field form: descend.
		for k, sub := range m {
			if !naiveField(t, append(append([]string{}, path...), splitPath(k)...), sub, doc) {
				return false
			}
		}
		return true
	}
	val, present := naiveLookup(doc, path)
	return present && naiveCompare(val, v) == 0
}

func naiveOp(t *testing.T, op string, val, operand any) bool {
	switch op {
	case "$eq":
		return naiveCompare(val, operand) == 0
	case "$gt":
		return naiveCompare(val, operand) > 0
	case "$gte":
		return naiveCompare(val, operand) >= 0
	case "$lt":
		return naiveCompare(val, operand) < 0
	case "$lte":
		return naiveCompare(val, operand) <= 0
	case "$in":
		for _, item := range operand.([]any) {
			if naiveCompare(val, item) == 0 {
				return true
			}
		}
		return false
	default:
		t.Fatalf("naive evaluator: unexpected op %s", op)
		return false
	}
}

// naiveCompare is an independent scalar collation: null < false < true <
// numbers < strings. The generator only produces scalar values.
func naiveCompare(a, b any) int {
	rank := func(v any) int {
		switch t := v.(type) {
		case nil:
			return 0
		case bool:
			if t {
				return 2
			}
			return 1
		case float64:
			return 3
		case string:
			return 4
		default:
			return 5
		}
	}
	ra, rb := rank(a), rank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 3:
		fa, fb := a.(float64), b.(float64)
		if fa < fb {
			return -1
		}
		if fa > fb {
			return 1
		}
		return 0
	case 4:
		sa, sb := a.(string), b.(string)
		if sa < sb {
			return -1
		}
		if sa > sb {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Generators -----------------------------------------------------------

var propFields = []string{"a", "b", "c", "m.x"}

func randValue(rng *rand.Rand) any {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 0
	case 2:
		return float64(rng.Intn(7) - 3)
	case 3:
		return float64(rng.Intn(7)-3) + 0.5
	default:
		return string(rune('a' + rng.Intn(4)))
	}
}

func randDoc(rng *rand.Rand) map[string]any {
	d := map[string]any{}
	for _, f := range []string{"a", "b", "c"} {
		if rng.Intn(4) > 0 { // 25% chance the field is missing
			d[f] = randValue(rng)
		}
	}
	if rng.Intn(3) > 0 {
		d["m"] = map[string]any{"x": randValue(rng)}
	}
	return d
}

func randCondition(rng *rand.Rand) map[string]any {
	field := propFields[rng.Intn(len(propFields))]
	switch rng.Intn(7) {
	case 0:
		return map[string]any{field: randValue(rng)} // implicit $eq
	case 1:
		return map[string]any{field: map[string]any{"$eq": randValue(rng)}}
	case 2:
		return map[string]any{field: map[string]any{"$gt": randValue(rng)}}
	case 3:
		return map[string]any{field: map[string]any{"$gte": randValue(rng), "$lt": randValue(rng)}}
	case 4:
		return map[string]any{field: map[string]any{"$lte": randValue(rng)}}
	case 5:
		n := 1 + rng.Intn(3)
		items := make([]any, n)
		for i := range items {
			items[i] = randValue(rng)
		}
		return map[string]any{field: map[string]any{"$in": items}}
	default:
		return map[string]any{field: map[string]any{"$lt": randValue(rng)}}
	}
}

func randSelector(rng *rand.Rand, depth int) map[string]any {
	switch {
	case depth > 0 && rng.Intn(3) == 0:
		n := 1 + rng.Intn(3)
		subs := make([]any, n)
		for i := range subs {
			subs[i] = randSelector(rng, depth-1)
		}
		comb := "$and"
		if rng.Intn(2) == 0 {
			comb = "$or"
		}
		return map[string]any{comb: subs}
	default:
		sel := randCondition(rng)
		if rng.Intn(2) == 0 {
			for k, v := range randCondition(rng) {
				sel[k] = v
			}
		}
		return sel
	}
}

// TestSelectorMatchesReference drives the parsed evaluator (Apply, reading
// the stored bytes with Extract) and the naive reference (over the same bytes
// decoded by DecodeDoc) over random (selector, document) pairs.
func TestSelectorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 3000; iter++ {
		selMap := randSelector(rng, 2)
		raw, err := json.Marshal(selMap)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := ParseSelector(raw)
		if err != nil {
			t.Fatalf("generated selector rejected: %s: %v", raw, err)
		}
		// Round-trip through JSON so the naive evaluator sees float64s.
		var selDecoded map[string]any
		if err := json.Unmarshal(raw, &selDecoded); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 10; d++ {
			dj, err := json.Marshal(randDoc(rng))
			if err != nil {
				t.Fatal(err)
			}
			docu, _ := DecodeDoc(dj)
			got := matches(t, sel, string(dj))
			want := naiveMatch(t, selDecoded, docu)
			if got != want {
				t.Fatalf("selector %s on doc %s: Matches=%v reference=%v", raw, dj, got, want)
			}
		}
	}
}

// TestIndexedQueryMatchesScanReference checks the full pipeline property:
// for random corpora and queries, executing via a secondary index (planner
// bounds + residual filter, or the bare range when the plan is exact)
// returns exactly the scan result.
func TestIndexedQueryMatchesScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	exact := 0
	for iter := 0; iter < 300; iter++ {
		// Corpus.
		n := 5 + rng.Intn(40)
		docs := make(map[string]map[string]any, n)
		ix := BuildIndex(IndexDef{Name: "by-a", Field: "a"}, nil)
		var cands []Candidate
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%03d", i)
			d := randDoc(rng)
			docs[key] = d
			putDoc(t, &ix, key, d)
			cands = append(cands, cand(t, key, d))
		}

		// Query constraining the indexed field.
		selMap := map[string]any{}
		for k, v := range randCondition(rng) {
			selMap[k] = v
		}
		selMap["a"] = map[string]any{"$gte": randValue(rng)}
		raw, _ := json.Marshal(map[string]any{"selector": selMap})
		q, err := ParseQuery(raw)
		if err != nil {
			t.Fatalf("parse %s: %v", raw, err)
		}

		// Scan path.
		scanKeys, _, err := Apply(q, cands)
		if err != nil {
			t.Fatal(err)
		}

		// Index path.
		plan := ChooseIndex(q, []Index{ix})
		if plan.Index == nil {
			t.Fatalf("planner refused index for %s", raw)
		}
		var ixKeys []string
		if keys := plan.Index.Range(plan.Low, plan.High); plan.Exact {
			exact++
			ixKeys, _, err = ApplyExact(q, keys)
		} else {
			var ixCands []Candidate
			for _, key := range keys {
				ixCands = append(ixCands, cand(t, key, docs[key]))
			}
			ixKeys, _, err = Apply(q, ixCands)
		}
		if err != nil {
			t.Fatal(err)
		}

		if fmt.Sprint(scanKeys) != fmt.Sprint(ixKeys) {
			t.Fatalf("query %s: scan %v != indexed %v", raw, scanKeys, ixKeys)
		}
	}
	if exact < 30 || exact > 270 {
		t.Fatalf("%d of 300 plans exact: the generator no longer reaches both executors", exact)
	}
}
