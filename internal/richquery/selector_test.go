package richquery

import "testing"

// matches reports whether sel matches the stored document raw, as Apply
// decides it.
func matches(t *testing.T, sel *Selector, raw string) bool {
	t.Helper()
	keys, _, err := Apply(&Query{Selector: sel}, []Candidate{{Key: "k", Value: []byte(raw)}})
	if err != nil {
		t.Fatal(err)
	}
	return len(keys) == 1
}

func TestSelectorOperators(t *testing.T) {
	d := `{"owner":"alice","size":42,"flag":true,"tag":null,
		"meta":{"type":"raw","score":7},"parents":["a","b"]}`

	cases := []struct {
		name string
		sel  string
		want bool
	}{
		{"implicit eq", `{"owner":"alice"}`, true},
		{"implicit eq miss", `{"owner":"bob"}`, false},
		{"explicit eq", `{"size":{"$eq":42}}`, true},
		{"eq null", `{"tag":null}`, true},
		{"eq bool", `{"flag":true}`, true},
		{"eq array", `{"parents":["a","b"]}`, true},
		{"eq array order", `{"parents":["b","a"]}`, false},
		{"gt", `{"size":{"$gt":41}}`, true},
		{"gt equal", `{"size":{"$gt":42}}`, false},
		{"gte equal", `{"size":{"$gte":42}}`, true},
		{"lt", `{"size":{"$lt":43}}`, true},
		{"lte", `{"size":{"$lte":41}}`, false},
		{"cross-type gt: string beats number", `{"owner":{"$gt":9999}}`, true},
		{"in", `{"owner":{"$in":["bob","alice"]}}`, true},
		{"in miss", `{"owner":{"$in":["bob","carol"]}}`, false},
		{"regex", `{"owner":{"$regex":"^ali"}}`, true},
		{"regex miss", `{"owner":{"$regex":"^bob"}}`, false},
		{"regex non-string field", `{"size":{"$regex":"4"}}`, false},
		{"dotted path", `{"meta.type":"raw"}`, true},
		{"nested object form", `{"meta":{"type":"raw"}}`, true},
		{"nested object form miss", `{"meta":{"type":"agg"}}`, false},
		{"nested with ops", `{"meta":{"score":{"$gte":5}}}`, true},
		{"missing field never matches", `{"nope":{"$lt":99}}`, false},
		{"missing field eq null", `{"nope":null}`, false},
		{"implicit and", `{"owner":"alice","size":{"$gt":40}}`, true},
		{"implicit and one fails", `{"owner":"alice","size":{"$gt":50}}`, false},
		{"multi-op field", `{"size":{"$gt":40,"$lt":45}}`, true},
		{"multi-op field fails", `{"size":{"$gt":40,"$lt":42}}`, false},
		{"$and", `{"$and":[{"owner":"alice"},{"flag":true}]}`, true},
		{"$or", `{"$or":[{"owner":"bob"},{"size":42}]}`, true},
		{"$or all fail", `{"$or":[{"owner":"bob"},{"size":1}]}`, false},
		{"empty selector matches all", `{}`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := ParseSelector([]byte(tc.sel))
			if err != nil {
				t.Fatalf("parse %s: %v", tc.sel, err)
			}
			if got := matches(t, sel, d); got != tc.want {
				t.Errorf("%s matches = %v, want %v", tc.sel, got, tc.want)
			}
		})
	}
}

// A stored value that is not a document (a JSON object json.Unmarshal takes
// into a map) matches no selector, not even the empty one.
func TestSelectorNeverMatchesNonDocuments(t *testing.T) {
	sel := MustSelector(`{}`)
	for _, raw := range []string{``, `null`, `[{"a":1}]`, `"{}"`, `{"a":1`, `{"a":1}{}`, `{"a":1e999}`, ` {"a":1}`} {
		if matches(t, sel, raw) {
			t.Errorf("%q matched as a document", raw)
		}
	}
	if !matches(t, sel, `{"a":1} `) {
		t.Error("a document with trailing space did not match")
	}
}

func TestSelectorParseErrors(t *testing.T) {
	bad := []string{
		`[1,2]`,                           // not an object
		`{"a":{"$bogus":1}}`,              // unknown operator
		`{"$nor":[{"a":1}]}`,              // unknown combinator
		`{"a":{"$in":5}}`,                 // $in wants array
		`{"a":{"$regex":5}}`,              // $regex wants string
		`{"a":{"$regex":"("}}`,            // bad pattern
		`{"a":{"$eq":1,"sub":2}}`,         // mixed operators and sub-fields
		`{"$or":[]}`,                      // empty $or
		`{"$and":"x"}`,                    // $and wants array
		`{"a":{"sub":{"$or":[{"b":1}]}}}`, // combinator under a field
	}
	for _, s := range bad {
		if _, err := ParseSelector([]byte(s)); err == nil {
			t.Errorf("ParseSelector(%s) accepted", s)
		}
	}
}

func TestParseQueryForms(t *testing.T) {
	q, err := ParseQuery([]byte(`{"selector":{"a":1},"sort":[{"b":"desc"},"c"],"limit":5,"bookmark":"bm"}`))
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 5 || q.Bookmark != "bm" || len(q.Sort) != 2 {
		t.Errorf("query = %+v", q)
	}
	if !q.Sort[0].Descending || q.Sort[0].Field != "b" || q.Sort[1].Descending {
		t.Errorf("sort = %+v", q.Sort)
	}

	// Bare selector form.
	q, err = ParseQuery([]byte(`{"a":{"$gt":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !matches(t, q.Selector, `{"a":4}`) {
		t.Error("bare selector did not parse as selector")
	}

	// Round trip through Marshal.
	q, err = ParseQuery([]byte(`{"selector":{"a":1},"sort":[{"b":"asc"}],"limit":2}`))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ParseQuery(wire)
	if err != nil {
		t.Fatalf("reparse %s: %v", wire, err)
	}
	if q2.Limit != 2 || len(q2.Sort) != 1 || q2.Sort[0].Field != "b" {
		t.Errorf("round-tripped query = %+v", q2)
	}

	if _, err := ParseQuery([]byte(`{"selector":{"a":1},"limit":-1}`)); err == nil {
		t.Error("negative limit accepted")
	}
	if _, err := ParseQuery([]byte(`{"selector":{"a":1},"sort":[{"b":"sideways"}]}`)); err == nil {
		t.Error("bad sort direction accepted")
	}
}

func TestCompareCollationOrder(t *testing.T) {
	// CouchDB collation: null < false < true < numbers < strings < arrays < objects.
	ordered := []any{nil, false, true, float64(-3), float64(0), float64(2.5), "", "a", "b",
		[]any{float64(1)}, []any{float64(1), float64(0)}, []any{float64(2)},
		map[string]any{"a": float64(1)}}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestEncodeKeyAgreesWithCompareOnScalars(t *testing.T) {
	vals := []any{nil, false, true, float64(-1e9), float64(-2), float64(-0.5), float64(0),
		float64(0.25), float64(3), float64(7e12), "", "0", "a", "ab", "b", "z\x00y"}
	for _, a := range vals {
		for _, b := range vals {
			cmp := Compare(a, b)
			ka, kb := EncodeKey(a), EncodeKey(b)
			enc := 0
			if ka < kb {
				enc = -1
			} else if ka > kb {
				enc = 1
			}
			if cmp != enc {
				t.Errorf("Compare(%v,%v)=%d but EncodeKey order %d", a, b, cmp, enc)
			}
		}
	}
}
