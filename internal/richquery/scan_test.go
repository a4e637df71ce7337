package richquery

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// putDoc indexes doc the way the state database does: through Extract over
// its JSON, as a one-document update.
func putDoc(t testing.TB, ix *Index, key string, doc map[string]any) {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	vals, found := make([]any, 1), make([]bool, 1)
	if !Extract(raw, [][]string{ix.Path()}, vals, found) {
		t.Fatalf("Extract refused %s", raw)
	}
	*ix = ix.Update([]string{key}, func(int) (any, bool) { return vals[0], found[0] })
}

// scanTexts is the seed corpus of the scanner's fuzzers: every production of
// the grammar, and the near misses on each.
var scanTexts = []string{
	``, ` `, `null`, ` true `, `false`, `nul`, `truth`, `nullx`, `0`, `-0`, `-`, `01`, `1.`, `1.5`, `.5`, `1e3`, `1E+3`, `1e`, `1e+`,
	`-1.25e-7`, `1e999`, `--1`, `+1`, `1 2`, `""`, `"a"`, `"a`, `"\n"`, "\"\n\"", "\"\x1f\"", "\"\x7f\"", `"é"`, `"\u00e"`,
	`"🐎"`, `"\ud83d"`, `"\x"`, `"\`, "\"\xff\xfe\"", `"žluťoučký 🐎"`, `"a\"b\\c\/d"`,
	`[]`, `[ ]`, `[1]`, `[1,]`, `[,1]`, `[1 2]`, `[1,2`, `]`, `[[[]]]`, `[null,true,"x",{}]`,
	`{}`, `{ }`, `{"a":1}`, `{"a":1,}`, `{,}`, `{"a"}`, `{"a":}`, `{a:1}`, `{"a":1 "b":2}`, `{"a":1,"a":2}`, `{"a":{"b":[1,{"c":null}]}}`,
	`{"a":1}x`, `{"a":1} `, ` {"a":1}`, "\xef\xbb\xbf{}", `{"a":1}`, "{\"a\x00b\":1}", `{"a":1e999}`, `{"a":[1e999]}`,
	`{"key":"k","meta":{"type":"raw","unit":"°C"},"parents":["a","b"],"ts":1570000000000}`,
	strings.Repeat("[", MaxDepth) + strings.Repeat("]", MaxDepth),
	strings.Repeat("[", MaxDepth+1) + strings.Repeat("]", MaxDepth+1),
	strings.Repeat(`{"a":`, MaxDepth) + `1` + strings.Repeat("}", MaxDepth),
	strings.Repeat(`{"a":`, MaxDepth+1) + `1` + strings.Repeat("}", MaxDepth+1),
}

// scanAll runs the scanner over data the way IsObject does, for any value.
// The slice's capacity ends with it, so a read past the input panics.
func scanAll(data []byte) bool {
	s := NewScanner(data[:len(data):len(data)])
	return s.Skip() == nil && s.End() == nil
}

// The scanner accepts exactly what encoding/json accepts.
func FuzzScan(f *testing.F) {
	for _, text := range scanTexts {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := scanAll(data), json.Valid(data); got != want {
			t.Fatalf("scanner accepts = %v, json.Valid = %v for %q", got, want, data)
		}
		wantObject := json.Valid(data) && data[0] == '{'
		if got := IsObject(data[:len(data):len(data)]); got != wantObject {
			t.Fatalf("IsObject = %v, want %v for %q", got, wantObject, data)
		}
	})
}

// A typed read refuses a value of another type and leaves a usable error.
func TestScannerTypedReads(t *testing.T) {
	for _, text := range []string{`1`, `"s"`, `true`, `null`, `[]`, `{}`, ``} {
		reads := []func(s *Scanner) error{
			func(s *Scanner) error { _, err := s.String(); return err },
			func(s *Scanner) error { _, err := s.Number(); return err },
			func(s *Scanner) error { _, err := s.Literal(); return err },
			func(s *Scanner) error { return s.Array(s.Skip) },
			func(s *Scanner) error { return s.Object(func([]byte) error { return s.Skip() }) },
		}
		accepted := 0
		for _, read := range reads {
			s := NewScanner([]byte(text))
			if err := read(&s); err == nil {
				accepted++
			} else if !strings.Contains(err.Error(), "offset 0") {
				t.Errorf("%q: error %q does not locate the value", text, err)
			}
		}
		if want := min(len(text), 1); accepted != want {
			t.Errorf("%q: %d typed reads accepted it, want %d", text, accepted, want)
		}
	}
	s := NewScanner([]byte(` {"kéy" : [1, "v"]} `))
	err := s.Object(func(key []byte) error {
		if string(key) != "kéy" {
			t.Errorf("key = %q", key)
		}
		raw, err := s.Raw()
		if string(raw) != `[1, "v"]` {
			t.Errorf("Raw = %q", raw)
		}
		return err
	})
	if err != nil || s.End() != nil {
		t.Errorf("walk: %v, End: %v", err, s.End())
	}
}

// extractPaths is FuzzExtract's path-set argument: comma-separated dotted
// paths.
func extractPaths(set string) [][]string {
	var paths [][]string
	for _, p := range strings.Split(set, ",") {
		paths = append(paths, strings.Split(p, "."))
	}
	return paths
}

// sameAsDecodeDoc requires Extract to answer for doc and paths what
// DecodeDoc and Lookup answer.
func sameAsDecodeDoc(t testing.TB, raw []byte, paths [][]string) {
	t.Helper()
	vals, found := make([]any, len(paths)), make([]bool, len(paths))
	for i := range vals { // stale results of an earlier call must not survive
		vals[i], found[i] = "stale", true
	}
	doc, want := DecodeDoc(raw)
	if got := Extract(raw[:len(raw):len(raw)], paths, vals, found); got != want {
		t.Fatalf("Extract = %v, DecodeDoc = %v for %q", got, want, raw)
	}
	if !want {
		return
	}
	for i, path := range paths {
		val, ok := Lookup(doc, path)
		if ok != found[i] || (ok && !reflect.DeepEqual(val, vals[i])) {
			t.Fatalf("%q at %q: Extract = %#v, %v; Lookup = %#v, %v", raw, path, vals[i], found[i], val, ok)
		}
	}
}

// Extract is DecodeDoc + Lookup, for any document and any path set.
func FuzzExtract(f *testing.F) {
	sets := []string{"a", "a,a.b,a.b.c", "meta.type,owner,creator,ts", "a.b,a", "key,meta,parents", ",a.,.", "a\x00b"}
	for i, text := range scanTexts {
		f.Add([]byte(text), sets[i%len(sets)])
	}
	for _, text := range []string{
		`{"a":{"b":{"c":1}},"x":[1,2]}`, `{"a":"scalar"}`, `{"a":{"b":1},"a":{"c":2}}`, `{"a":{"b":1},"a":2}`, `{"a":2,"a":{"b":1}}`,
		`{"a":{"b":1,"b":"two"}}`, `{"a":[{"b":1}]}`, `{"a":null}`, `{"a":{"b":null}}`, `{"a":{"b":[1,{"c":true}]}}`, `{"":{"":1}}`,
		`{"a":{"b":1e999}}`, `{"a":{"b":[1e999]}}`, `{"a":-0.0}`, `{"a":"é\ud83d"}`, `{"a":{"b":false}}`, `{"A":1}`,
		`{"meta":{"type":"raw"},"owner":"o","creator":"c","ts":1570000000000,"parents":["p"]}`,
	} {
		for _, set := range sets {
			f.Add([]byte(text), set)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, set string) {
		sameAsDecodeDoc(t, raw, extractPaths(set))
	})
}

// More paths than one scan's mask holds are read in several scans.
func TestExtractManyPaths(t *testing.T) {
	doc := map[string]any{}
	var paths [][]string
	for i := 0; i < 150; i++ {
		name := fmt.Sprintf("f%03d", i)
		if i%3 != 0 {
			doc[name] = map[string]any{"v": float64(i)}
		}
		paths = append(paths, []string{name, "v"})
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	sameAsDecodeDoc(t, raw, paths)
	sameAsDecodeDoc(t, []byte(`{"f001":{"v":1e999}}`), paths)
	sameAsDecodeDoc(t, raw, nil)
}

// Reading four fields of a record allocates for those values only.
func TestExtractAllocations(t *testing.T) {
	raw := []byte(`{"key":"d-03-17","checksum":"cs-03-17-00","creator":"x509::CN=client,O=Org1,OU=client",` +
		`"owner":"x509::CN=client,O=Org1,OU=client","parents":["d-03-16","d-03-15"],"meta":{"type":"t1"},` +
		`"txid":"3f1c","timestamp":"2019-10-02T07:06:40Z","ts":1570000000000}`)
	paths := extractPaths("owner,creator,meta.type,ts")
	vals, found := make([]any, 4), make([]bool, 4)
	allocs := testing.AllocsPerRun(100, func() {
		if !Extract(raw, paths, vals, found) {
			t.Fatal("refused")
		}
	})
	// Three strings, each a copy and its interface box; the number's box.
	if allocs > 7 {
		t.Errorf("Extract of four fields: %.0f allocations, want <= 7", allocs)
	}
	if fmt.Sprint(vals) != "[x509::CN=client,O=Org1,OU=client x509::CN=client,O=Org1,OU=client t1 1.57e+12]" {
		t.Errorf("vals = %v", vals)
	}
}
