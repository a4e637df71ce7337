package provenance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// The decoders in decode.go promise encoding/json's verdict and value for
// every input. This file holds them to it against json.Unmarshal into the
// same Go type — over every payload splice_test.go's fixture renders, the
// corner cases of the contract by hand, and whatever the fuzzers derive from
// both — and pins what the rewrite was for: allocations.

// differ reports the first way in which a decoder and json.Unmarshal into
// the same type disagree on payload: the verdict, or the value on accept.
func differ[T any](payload []byte, decode func([]byte) (T, error)) error {
	var want T
	wantErr := json.Unmarshal(payload, &want)
	got, err := decode(payload[:len(payload):len(payload)]) // a read past the input panics
	if (err == nil) != (wantErr == nil) {
		return fmt.Errorf("decoder error %v, json.Unmarshal error %v", err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		return fmt.Errorf("decoded\n%#v\njson.Unmarshal\n%#v", got, want)
	}
	return nil
}

// deref adapts a decoder returning *T to the value json.Unmarshal fills.
func deref[T any](decode func([]byte) (*T, error)) func([]byte) (T, error) {
	return func(payload []byte) (T, error) {
		p, err := decode(payload)
		if err != nil {
			var zero T
			return zero, err
		}
		return *p, nil
	}
}

// storedFields is what the chaincode's partial reads take from a stored
// record, as the struct they used to decode it into.
type storedFields struct {
	Owner    string            `json:"owner"`
	Creator  string            `json:"creator"`
	Checksum string            `json:"checksum"`
	Parents  []string          `json:"parents"`
	Meta     map[string]string `json:"meta"`
}

func readStoredFields(raw []byte) (storedFields, error) {
	var f storedFields
	err := readFields(raw, func(d *decoder, name string) error {
		switch name {
		case "owner":
			return d.str(&f.Owner)
		case "creator":
			return d.str(&f.Creator)
		case "checksum":
			return d.str(&f.Checksum)
		case "parents":
			return array(d, &f.Parents, 0, (*decoder).str)
		default:
			return d.stringMap(&f.Meta)
		}
	}, "owner", "creator", "checksum", "parents", "meta")
	return f, err
}

// checkAll runs every decoder over payload, whatever it was rendered for.
func checkAll(t testing.TB, payload []byte) {
	t.Helper()
	for name, err := range map[string]error{
		"DecodeRecord":  differ(payload, deref(DecodeRecord)),
		"DecodeRecords": differ(payload, DecodeRecords),
		"DecodeHistory": differ(payload, DecodeHistory),
		"DecodePage":    differ(payload, deref(DecodePage)),
		"DecodeStats":   differ(payload, deref(DecodeStats)),
		"readFields":    differ(payload, readStoredFields),
	} {
		if err != nil {
			t.Fatalf("%s on %q: %v", name, payload, err)
		}
	}
}

const (
	oneRecord = `{"key":"k","checksum":"cs","location":"l","creator":"c","owner":"o","parents":["a","b"],` +
		`"meta":{"type":"raw"},"txid":"tx","timestamp":"2019-10-02T07:06:40Z","ts":1570000000000}`
	oneVersion = `{"record":` + oneRecord + `,"txId":"tx","isDelete":true,"blockNum":7,"timestamp":"2019-10-02T07:06:40.5+02:00"}`
)

// edgeRecords are records at the corners of the contract; each also seeds
// the fuzzers as an element of an array, a history entry and a page.
var edgeRecords = []string{
	oneRecord, `{}`, `null`, `[]`, `{"Key":"K","CHECKSUM":"C","Parents":["p"],"META":{"a":"b"},"TS":5,"TxID":"t","txId":"u"}`,
	`{"\u212aey":"kelvin sign, escaped","checkſum":"long s","Key":"kelvin sign","key2":"no field"}`, `{"key":"a","key":"b","KEY":"c"}`,
	`{"meta":{"a":"1","b":"2"},"meta":{"b":"3","c":null}}`, `{"meta":{"a":"1"},"meta":null}`, `{"meta":null,"meta":{}}`,
	`{"meta":{}}`, `{"meta":{"a":null}}`, `{"meta":{"a":1}}`, `{"meta":[]}`, `{"meta":"m"}`, `{"meta":{"é\n":"🐎","\ud83d":"\xff"}}`,
	`{"parents":["a","b"],"parents":["c"]}`, `{"parents":["a","b"],"parents":[null]}`, `{"parents":["a","b"],"parents":[]}`,
	`{"parents":["a","b"],"parents":["c"],"parents":[null,null,null]}`, `{"parents":["a"],"parents":null}`, `{"parents":null}`,
	`{"parents":[]}`, `{"parents":[null]}`, `{"parents":[1]}`, `{"parents":"p"}`, `{"parents":{}}`, `{"parents":[["a"]]}`,
	`{"key":null,"checksum":5}`, `{"key":true}`, `{"key":["k"]}`, `{"key":{"k":1}}`, `{"key":"žluťoučký   🐎 \\ \" \/"}`,
	"{\"key\":\"\xff\xfe\"}", `{"key":"\ud83d"}`, `{"key":"a b"}`, "{\"key\":\"a\x7fb\"}", "{\"key\":\"a\tb\"}",
	`{"ts":1e3}`, `{"ts":1.0}`, `{"ts":-5}`, `{"ts":-0}`, `{"ts":"5"}`, `{"ts":null}`, `{"ts":9223372036854775807}`,
	`{"ts":9223372036854775808}`, `{"ts":-9223372036854775809}`, `{"ts":[]}`, `{"ts":true}`, `{"ts":01}`,
	`{"timestamp":null}`, `{"timestamp":"2019-10-02T07:06:40Z"}`, `{"timestamp":"2019-10-02T07:06:40.123456789-07:00"}`,
	`{"timestamp":"2019-10-02 07:06:40"}`, `{"timestamp":5}`, `{"timestamp":{}}`, `{"timestamp":["2019-10-02T07:06:40Z"]}`,
	`{"timestamp":"2019-10-02T07:06:40Z"}`, `{"timestamp":"2019-10-02T07:06:40Z","timestamp":null}`,
	`{"unknown":{"deep":[1,2,{"x":null}]},"key":"after"}`, `{"unknown":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
	`{"unknown":` + strings.Repeat("[", 9990) + strings.Repeat("]", 9990) + `}`, `{"unknown":1e999}`,
	`{"key":"k"}x`, `{"key":"k"} `, ` {"key":"k"}`, `{"key":"k",}`, `{"key"}`, `{"key":}`, `{key:"k"}`, `{"key":"k"`,
}

// edgePayloads are whole payloads at the corners of the contract.
var edgePayloads = []string{
	``, ` `, `null`, ` null `, `[]`, `[ ]`, `[null]`, `[null,null]`, `[{}]`, `[[]]`, `[1]`, `["r"]`, `{}`, `true`, `0`, `"s"`, `nul`, `[`, `[{},]`,
	`{"records":null}`, `{"records":[]}`, `{"records":[null]}`, `{"records":{}}`, `{"Records":[{"key":"k"}],"NEXT":"n"}`,
	`{"records":[` + oneRecord + `],"next":"bm","next":null}`, `{"next":5}`, `{"next":"aé"}`, `{"records":5}`,
	`{"records":[{"key":"a","checksum":"1"},{"key":"b"}],"records":[{"checksum":"2"}]}`,
	`{"records":[{"key":"a"},{"key":"b"}],"records":[{"key":"c"}],"records":[null,null]}`,
	`{"records":[{"parents":["x","y"]}],"records":[{"parents":[null]}]}`, `{"records":18446744073709551615}`,
	`{"records":18446744073709551616}`, `{"records":-1}`, `{"records":-0}`, `{"records":1.0}`, `{"RECORDS":3}`,
	`[` + oneVersion + `]`, `[{"record":null,"txId":"t","blockNum":1,"timestamp":"2019-10-02T07:06:40Z"}]`,
	`[{"record":{"key":"a"},"record":{"checksum":"c"}}]`, `[{"record":{"key":"a"},"record":null}]`, `[{"record":5}]`, `[{"record":[]}]`,
	`[{"Record":{"key":"a"},"TXID":"t","ISDELETE":false,"BLOCKNUM":2}]`, `[{"isDelete":null}]`, `[{"isDelete":1}]`, `[{"isDelete":"true"}]`,
	`[{"blockNum":-1}]`, `[{"blockNum":-0}]`, `[{"blockNum":1.5}]`, `[{"blockNum":1e2}]`, `[{"blockNum":null}]`, `[{"blockNum":"3"}]`,
	`[{"timestamp":"nope"}]`, `[{"txId":"a"},{"txId":null},null]`,
}

// decodeSeeds is the fuzzers' seed corpus: every payload splice_test.go's
// fixture renders, every edge above, and each edge record in each position a
// record takes.
func decodeSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	l := newIndexedLedger(t)
	for _, c := range readCalls(t, seedDAG(t, l)) {
		if payload := l.same(t, c); payload != nil {
			seeds = append(seeds, payload)
		}
	}
	for _, key := range []string{"root", "right", "versioned"} {
		seeds = append(seeds, l.query(FnGet, key).Payload)
	}
	seeds = append(seeds, l.query(FnGetStats).Payload)
	for _, p := range edgePayloads {
		seeds = append(seeds, []byte(p))
	}
	for _, r := range edgeRecords {
		seeds = append(seeds, []byte(r), []byte(`[`+oneRecord+`,`+r+`]`), []byte(`{"records":[`+r+`],"next":"n"}`),
			[]byte(`[{"record":`+r+`,"txId":"t"}]`))
	}
	return seeds
}

func TestDecodersMatchEncodingJSON(t *testing.T) {
	seeds := decodeSeeds(t)
	if len(seeds) < 400 {
		t.Fatalf("only %d seeds: the fixture no longer renders its payloads", len(seeds))
	}
	for _, payload := range seeds {
		checkAll(t, payload)
	}
	// Seeded mutations of those payloads — a byte replaced, dropped or
	// inserted, from the alphabet the grammar reacts to: the fuzzers' first
	// seconds, on every run of the tests.
	const alphabet = `{}[]":,\/ntfu0123456789eE.-+ aK` + "\x00\x7f\x80\xff"
	rng := rand.New(rand.NewSource(25))
	for n := 0; n < 20000; n++ {
		m := bytes.Clone(seeds[rng.Intn(len(seeds))])
		if len(m) == 0 || len(m) > 4096 {
			continue
		}
		for edits := 1 + rng.Intn(3); edits > 0 && len(m) > 0; edits-- {
			i, c := rng.Intn(len(m)), alphabet[rng.Intn(len(alphabet))]
			switch rng.Intn(3) {
			case 0:
				m[i] = c
			case 1:
				m = append(m[:i], m[i+1:]...)
			default:
				m = append(m[:i], append([]byte{c}, m[i:]...)...)
			}
		}
		checkAll(t, m)
	}
}

func fuzzDecoder[T any](f *testing.F, decode func([]byte) (T, error)) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if err := differ(payload, decode); err != nil {
			t.Fatalf("%q: %v", payload, err)
		}
	})
}

// FuzzDecodeRecords also covers the one-record decoder and the chaincode's
// partial reads, which take the same inputs.
func FuzzDecodeRecords(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, err := range []error{differ(payload, DecodeRecords), differ(payload, deref(DecodeRecord)), differ(payload, readStoredFields)} {
			if err != nil {
				t.Fatalf("%q: %v", payload, err)
			}
		}
	})
}

func FuzzDecodeHistory(f *testing.F) { fuzzDecoder(f, DecodeHistory) }

// FuzzDecodePage also covers the stats decoder: both read a top-level object.
func FuzzDecodePage(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, err := range []error{differ(payload, deref(DecodePage)), differ(payload, deref(DecodeStats))} {
			if err != nil {
				t.Fatalf("%q: %v", payload, err)
			}
		}
	})
}

// lineagePayload renders the getLineage payload of a chain of n records,
// record i derived from i-1 and i-2, as lineage_mixed's DAG is.
func lineagePayload(t testing.TB, n int) (*ledger, []byte) {
	t.Helper()
	l := newIndexedLedger(t)
	key := func(i int) string { return fmt.Sprintf("d-03-%02d", i) }
	for i := 0; i < n; i++ {
		in := setArgs{Key: key(i), Checksum: fmt.Sprintf("cs-03-%02d-00", i), Meta: map[string]string{"type": fmt.Sprintf("t%d", i%8)}}
		for _, j := range []int{i - 1, i - 2} {
			if j >= 0 {
				in.Parents = append(in.Parents, key(j))
			}
		}
		if resp := l.invoke(FnSet, mustJSON(t, in)); resp.Status != shim.OK {
			t.Fatalf("set %q: %s", in.Key, resp.Message)
		}
	}
	resp := l.query(FnGetLineage, key(n-1))
	if resp.Status != shim.OK {
		t.Fatal(resp.Message)
	}
	return l, resp.Payload
}

// A lineage payload decodes in a handful of allocations per record — the
// parents slice, once at its length, and the meta map — where reflection
// took fifteen: its strings are one allocation for the payload.
func TestDecodeRecordsAllocations(t *testing.T) {
	_, payload := lineagePayload(t, 64)
	var recs []Record
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if recs, err = DecodeRecords(payload); err != nil || len(recs) != 64 {
			t.Fatalf("%d records, %v", len(recs), err)
		}
	})
	perRecord := allocs / 64
	t.Logf("DecodeRecords: %.2f allocations per record (%.0f for 64)", perRecord, allocs)
	if perRecord > 3.25 {
		t.Errorf("DecodeRecords: %.2f allocations per record (%.0f for 64), want <= 3.25", perRecord, allocs)
	}
	for i, rec := range recs {
		if cap(rec.Parents) != len(rec.Parents) {
			t.Fatalf("record %d: parents slice has capacity %d for %d parents", i, cap(rec.Parents), len(rec.Parents))
		}
	}
	if cap(recs) != 64 {
		t.Errorf("result slice has capacity %d for 64 records: the size hint missed", cap(recs))
	}
	if err := differ(payload, DecodeRecords); err != nil {
		t.Error(err)
	}
}

// The client's decode of a 64-record lineage reply.
func BenchmarkDecodeRecords(b *testing.B) {
	_, payload := lineagePayload(b, 64)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeRecords(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// Reading parents to walk a lineage copies two short keys; it must not copy
// the record they sit in (924 → 1039 KiB per lineage_mixed operation when
// the prototype of this decoder did).
func TestParentsReadAllocatesNoPayloadSizedString(t *testing.T) {
	l, _ := lineagePayload(t, 3)
	raw := l.query(FnGet, "d-03-02").Payload
	var parents []string
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 1000
	for i := 0; i < runs; i++ {
		parents = nil
		if err := readFields(raw, func(d *decoder, _ string) error { return array(d, &parents, 0, (*decoder).str) }, "parents"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if fmt.Sprint(parents) != "[d-03-01 d-03-00]" {
		t.Fatalf("parents = %v", parents)
	}
	if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead >= uint64(len(raw)) {
		t.Errorf("reading parents of a %d-byte record allocates %d bytes", len(raw), perRead)
	}
}

// getHistory renders seventeen versions into one buffer: nothing else on
// the way allocates.
func TestHistoryPayloadAllocations(t *testing.T) {
	l := newIndexedLedger(t)
	for v := 0; v < 17; v++ {
		l.set(t, "versioned", fmt.Sprintf("cs-%02d", v))
	}
	entries, err := l.stub(FnGetHistory, nil).GetHistoryForKey("versioned")
	if err != nil || len(entries) != 17 {
		t.Fatalf("%d entries, %v", len(entries), err)
	}
	var payload []byte
	allocs := testing.AllocsPerRun(50, func() {
		if payload, err = historyPayload(entries); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("historyPayload of 17 versions: %.0f allocations, want 1", allocs)
	}
	l.same(t, call{FnGetHistory, []string{"versioned"}})
	hist, err := DecodeHistory(payload)
	if err != nil || len(hist) != 17 || hist[16].Record.Checksum != "cs-16" {
		t.Errorf("decoded %d versions, %v", len(hist), err)
	}
	// What the envelope escapes, it escapes as json.Marshal does.
	odd := []shim.HistoryEntry{{TxID: "<tx&\"\\\x01é\xff>", IsDelete: true, BlockNum: 1<<64 - 1, Timestamp: time.Unix(1570000000, 5).UTC()}}
	got, err := historyPayload(odd)
	want, _ := json.Marshal([]HistoryRecord{{TxID: odd[0].TxID, IsDelete: true, BlockNum: odd[0].BlockNum, Time: odd[0].Timestamp}})
	if err != nil || string(got) != string(want) {
		t.Errorf("historyPayload = %s (%v), json.Marshal = %s", got, err, want)
	}
	if _, err := historyPayload([]shim.HistoryEntry{{Timestamp: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}}); err == nil {
		t.Error("a year json.Marshal refuses was rendered")
	}
}

// One record of a page keeps the payload's one string alive, not more: the
// decoded strings are substrings of a copy, never views of the payload.
func TestDecodedStringsDoNotAliasPayload(t *testing.T) {
	_, payload := lineagePayload(t, 4)
	recs, err := DecodeRecords(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%+v", recs)
	for i := range payload {
		payload[i] = 'X'
	}
	if got := fmt.Sprintf("%+v", recs); got != want {
		t.Errorf("records changed with the payload:\n%s\n%s", got, want)
	}
	if !richquery.IsObject([]byte(mustJSON(t, recs[0]))) {
		t.Error("a decoded record no longer marshals")
	}
}
