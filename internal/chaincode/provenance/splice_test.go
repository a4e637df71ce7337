package provenance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// The read functions splice stored record bytes into their payloads. This
// file keeps the renderer they replaced — decode every stored value into
// Record / HistoryRecord, json.Marshal the result — as the reference, and
// requires byte-equal payloads from both for everything set can write.

// reference is the decode → re-encode renderer of every read function.
type reference struct{}

func (reference) Invoke(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	marshal := func(v any) shim.Response {
		payload, err := json.Marshal(v)
		if err != nil {
			return shim.Errorf("%s: marshal: %v", stub.Function(), err)
		}
		return shim.Success(payload)
	}
	fieldQuery := func(field, value string) shim.Response {
		raw, err := equalitySelector(field, value)
		if err != nil {
			return shim.Errorf("query %s: %v", field, err)
		}
		kvs, err := stub.GetQueryResult(raw)
		if err != nil {
			return shim.Errorf("query %s: %v", field, err)
		}
		return marshal(refRecords(kvs))
	}
	switch stub.Function() {
	case FnGetHistory:
		entries, err := stub.GetHistoryForKey(args[0])
		if err != nil {
			return shim.Errorf("getHistory: %v", err)
		}
		out := make([]HistoryRecord, 0, len(entries))
		for _, e := range entries {
			hr := HistoryRecord{TxID: e.TxID, IsDelete: e.IsDelete, BlockNum: e.BlockNum, Time: e.Timestamp}
			if !e.IsDelete && len(e.Value) > 0 {
				var rec Record
				if err := json.Unmarshal(e.Value, &rec); err == nil {
					hr.Record = &rec
				}
			}
			out = append(out, hr)
		}
		return marshal(out)

	case FnGetLineage:
		start := args[0]
		seen := map[string]bool{start: true}
		frontier := []string{start}
		var out []Record
		for depth := 0; len(frontier) > 0 && depth < maxLineageDepth; depth++ {
			var next []string
			for _, key := range frontier {
				raw, err := stub.GetState(key)
				if err != nil {
					return shim.Errorf("getLineage: %v", err)
				}
				if raw == nil {
					if key == start {
						return shim.Errorf("getLineage: key %q not found", start)
					}
					continue
				}
				var rec Record
				if err := json.Unmarshal(raw, &rec); err != nil {
					return shim.Errorf("getLineage: corrupt record %q: %v", key, err)
				}
				out = append(out, rec)
				for _, p := range rec.Parents {
					if !seen[p] {
						seen[p] = true
						next = append(next, p)
					}
				}
			}
			frontier = next
		}
		return marshal(out)

	case FnGetDescendants:
		start := args[0]
		seen := map[string]bool{start: true}
		frontier := []string{start}
		var out []Record
		for depth := 0; len(frontier) > 0 && depth < maxLineageDepth; depth++ {
			var next []string
			for _, key := range frontier {
				kvs, err := stub.GetStateByPartialCompositeKey(idxChild, []string{key})
				if err != nil {
					return shim.Errorf("getDescendants: %v", err)
				}
				for _, kv := range kvs {
					_, attrs, err := stub.SplitCompositeKey(kv.Key)
					if err != nil || len(attrs) != 2 {
						return shim.Errorf("getDescendants: corrupt edge %q", kv.Key)
					}
					child := attrs[1]
					if seen[child] {
						continue
					}
					seen[child] = true
					raw, err := stub.GetState(child)
					if err != nil {
						return shim.Errorf("getDescendants: read %q: %v", child, err)
					}
					if raw == nil {
						continue
					}
					var rec Record
					if err := json.Unmarshal(raw, &rec); err != nil {
						return shim.Errorf("getDescendants: corrupt record %q: %v", child, err)
					}
					out = append(out, rec)
					next = append(next, child)
				}
			}
			frontier = next
		}
		return marshal(out)

	case FnGetChildren:
		kvs, err := stub.GetStateByPartialCompositeKey(idxChild, []string{args[0]})
		if err != nil {
			return shim.Errorf("getChildren: %v", err)
		}
		out := make([]Record, 0, len(kvs))
		for _, kv := range kvs {
			_, attrs, err := stub.SplitCompositeKey(kv.Key)
			if err != nil || len(attrs) != 2 {
				return shim.Errorf("getChildren: corrupt edge %q", kv.Key)
			}
			raw, err := stub.GetState(attrs[1])
			if err != nil {
				return shim.Errorf("getChildren: read %q: %v", attrs[1], err)
			}
			if raw == nil {
				continue
			}
			var rec Record
			if err := json.Unmarshal(raw, &rec); err != nil {
				return shim.Errorf("getChildren: corrupt record %q: %v", attrs[1], err)
			}
			out = append(out, rec)
		}
		return marshal(out)

	case FnList:
		var in listArgs
		if err := json.Unmarshal(stub.Args()[0], &in); err != nil {
			return shim.Errorf("list: bad args: %v", err)
		}
		if in.Limit <= 0 || in.Limit > maxListLimit {
			in.Limit = maxListLimit
		}
		start := in.Prefix
		if in.After != "" {
			start = in.After + "\x01"
		}
		end := ""
		if in.Prefix != "" {
			end = in.Prefix + "\xff"
		}
		kvs, err := stub.GetStateByRange(start, end)
		if err != nil {
			return shim.Errorf("list: %v", err)
		}
		page := ListPage{}
		for _, kv := range kvs {
			if !strings.HasPrefix(kv.Key, in.Prefix) {
				continue
			}
			var rec Record
			if err := json.Unmarshal(kv.Value, &rec); err != nil {
				continue
			}
			page.Records = append(page.Records, rec)
			if len(page.Records) == in.Limit {
				page.Next = kv.Key
				break
			}
		}
		return marshal(page)

	case FnGetByCreator:
		return fieldQuery("creator", args[0])
	case FnGetByOwner:
		return fieldQuery("owner", args[0])
	case FnGetByType:
		return fieldQuery("meta."+MetaType, args[0])
	case FnQueryMeta:
		if !strings.ContainsAny(args[0], ".$") && args[1] != "" {
			return fieldQuery("meta."+args[0], args[1])
		}
		kvs, err := stub.GetStateByRange("", "")
		if err != nil {
			return shim.Errorf("queryMeta: %v", err)
		}
		out := make([]Record, 0, 8)
		for _, kv := range kvs {
			var rec Record
			if err := json.Unmarshal(kv.Value, &rec); err != nil {
				continue
			}
			if rec.Meta[args[0]] == args[1] {
				out = append(out, rec)
			}
		}
		return marshal(out)

	case FnGetByTimeRange:
		from, err := time.Parse(time.RFC3339, args[0])
		if err != nil {
			return shim.Errorf("getByTimeRange: bad from time: %v", err)
		}
		to, err := time.Parse(time.RFC3339, args[1])
		if err != nil {
			return shim.Errorf("getByTimeRange: bad to time: %v", err)
		}
		query := fmt.Sprintf(`{"selector":{"ts":{"$gte":%d,"$lt":%d}},"sort":[{"ts":"asc"}]}`,
			from.UnixMilli(), to.UnixMilli())
		kvs, err := stub.GetQueryResult(query)
		if err != nil {
			return shim.Errorf("getByTimeRange: %v", err)
		}
		return marshal(refRecords(kvs))

	case FnRichQuery:
		if len(args) == 3 {
			pageSize, err := strconv.Atoi(args[1])
			if err != nil || pageSize <= 0 {
				return shim.Errorf("richQuery: bad page size %q", args[1])
			}
			kvs, next, err := stub.GetQueryResultWithPagination(args[0], pageSize, args[2])
			if err != nil {
				return shim.Errorf("richQuery: %v", err)
			}
			return marshal(QueryPage{Records: refRecords(kvs), Next: next})
		}
		kvs, err := stub.GetQueryResult(args[0])
		if err != nil {
			return shim.Errorf("richQuery: %v", err)
		}
		return marshal(QueryPage{Records: refRecords(kvs)})
	}
	return shim.Errorf("reference: no renderer for %q", stub.Function())
}

func refRecords(kvs []statedb.KV) []Record {
	out := make([]Record, 0, len(kvs))
	for _, kv := range kvs {
		var rec Record
		if err := json.Unmarshal(kv.Value, &rec); err != nil {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// call is one read invocation.
type call struct {
	fn   string
	args []string
}

// same requires the chaincode and the reference to answer c identically:
// byte-equal payloads, or an error from both. It returns the payload.
func (l *ledger) same(t testing.TB, c call) []byte {
	t.Helper()
	raw := make([][]byte, len(c.args))
	for i, a := range c.args {
		raw[i] = []byte(a)
	}
	got := l.cc.Invoke(l.stub(c.fn, raw))
	want := reference{}.Invoke(l.stub(c.fn, raw))
	if got.Status != want.Status {
		t.Fatalf("%s%q: status %d (%s), reference %d (%s)", c.fn, c.args, got.Status, got.Message, want.Status, want.Message)
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("%s%q:\npayload   %s\nreference %s", c.fn, c.args, got.Payload, want.Payload)
	}
	return got.Payload
}

// accepted decodes a payload the way internal/core's client does, which
// must succeed: the client is the one party that needs a Record.
func accepted(t testing.TB, c call, payload []byte) {
	t.Helper()
	var into any
	switch c.fn {
	case FnGetHistory:
		into = new([]HistoryRecord)
	case FnList:
		into = new(ListPage)
	case FnRichQuery:
		into = new(QueryPage)
	default:
		into = new([]Record)
	}
	if err := json.Unmarshal(payload, into); err != nil {
		t.Fatalf("%s%q: client cannot decode %s: %v", c.fn, c.args, payload, err)
	}
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// plant commits a raw value at a key, bypassing set.
func (l *ledger) plant(t testing.TB, key string, value []byte) {
	t.Helper()
	resp := l.commitInvoke("plant", nil, func(stub *shim.Stub) shim.Response {
		if err := stub.PutState(key, value); err != nil {
			return shim.Errorf("%v", err)
		}
		return shim.Success(nil)
	})
	if resp.Status != shim.OK {
		t.Fatalf("plant %q: %s", key, resp.Message)
	}
}

const testerSubject = "x509::CN=tester,O=Org1,OU=client"

// seedDAG commits the fixture the differential test reads: every shape of
// record set can write, and the traversal and history corner cases.
func seedDAG(t testing.TB, l *ledger) (keys []string) {
	t.Helper()
	post := func(in setArgs) {
		t.Helper()
		if resp := l.invoke(FnSet, mustJSON(t, in)); resp.Status != shim.OK {
			t.Fatalf("set %q: %s", in.Key, resp.Message)
		}
		keys = append(keys, in.Key)
	}
	post(setArgs{Key: "root", Checksum: "cs-root", Location: "offchain://store/root",
		Meta: map[string]string{"type": "raw", "unit": "°C", "note": `<b>"hot" & 'cold'</b>`}})
	post(setArgs{Key: "root2", Checksum: "cs-root2", Parents: []string{}, Creator: "sensor-7"})
	post(setArgs{Key: "left", Checksum: "cs-left", Parents: []string{"root"},
		Meta: map[string]string{"type": "aggregate", "a.b": "dotted", "empty": ""}})
	post(setArgs{Key: "right", Checksum: "cs-right", Parents: []string{"root", "root2"},
		Meta: map[string]string{"type": "aggregate"}, Creator: "žluťoučký kůň \u2028 🐎 \\ \x7f"})
	post(setArgs{Key: "join", Checksum: "cs-join", Parents: []string{"left", "right"},
		Location: "s3://bucket/join?x=1&y=<2>", Meta: map[string]string{"type": "model"}})
	post(setArgs{Key: "leaf", Checksum: "cs-leaf", Parents: []string{"join"}, Meta: map[string]string{}})
	// Seventeen versions of one key.
	for v := 0; v < 17; v++ {
		post(setArgs{Key: "versioned", Checksum: fmt.Sprintf("cs-v%d", v), Parents: []string{"leaf"},
			Meta: map[string]string{"type": "raw", "v": fmt.Sprint(v)}})
	}
	// A tombstoned parent: lineage of "orphan" walks past "gone" to nothing,
	// descendants of "root" stop at it.
	post(setArgs{Key: "gone", Checksum: "cs-gone", Parents: []string{"root"}})
	post(setArgs{Key: "orphan", Checksum: "cs-orphan", Parents: []string{"gone", "leaf"}})
	if resp := l.invoke(FnDelete, "gone"); resp.Status != shim.OK {
		t.Fatalf("delete gone: %s", resp.Message)
	}
	// Deleted, then written again: history carries the deletion.
	post(setArgs{Key: "phoenix", Checksum: "cs-p1", Meta: map[string]string{"type": "raw"}})
	if resp := l.invoke(FnDelete, "phoenix"); resp.Status != shim.OK {
		t.Fatalf("delete phoenix: %s", resp.Message)
	}
	post(setArgs{Key: "phoenix", Checksum: "cs-p2", Parents: []string{"root2"}})
	// Plain keys holding what set never writes: both renderers skip them.
	l.plant(t, "junk-text", []byte("not json"))
	l.plant(t, "junk-number", []byte("42"))
	l.plant(t, "junk-array", []byte(`[{"key":"x"}]`))
	return append(keys, "gone", "junk-text", "junk-number", "junk-array", "missing")
}

// readCalls is every read function over the fixture's keys, empty results
// included.
func readCalls(t testing.TB, keys []string) []call {
	var calls []call
	for _, key := range keys {
		for _, fn := range []string{FnGetLineage, FnGetDescendants, FnGetChildren, FnGetHistory} {
			calls = append(calls, call{fn, []string{key}})
		}
	}
	for _, in := range []listArgs{{}, {Limit: 3}, {Limit: 3, After: "join"}, {Prefix: "r"}, {Prefix: "r", Limit: 1},
		{Prefix: "junk"}, {Prefix: "zzz"}, {After: "versioned"}, {Limit: 1000}} {
		calls = append(calls, call{FnList, []string{mustJSON(t, in)}})
	}
	for _, who := range []string{testerSubject, "sensor-7", "žluťoučký kůň \u2028 🐎 \\ \x7f", "nobody"} {
		calls = append(calls, call{FnGetByCreator, []string{who}}, call{FnGetByOwner, []string{who}})
	}
	for _, typ := range []string{"raw", "aggregate", "model", "none", ""} {
		calls = append(calls, call{FnGetByType, []string{typ}}, call{FnQueryMeta, []string{"type", typ}})
	}
	calls = append(calls,
		call{FnQueryMeta, []string{"unit", "°C"}}, call{FnQueryMeta, []string{"a.b", "dotted"}},
		call{FnQueryMeta, []string{"empty", ""}}, call{FnQueryMeta, []string{"nope", "x"}},
		call{FnGetByTimeRange, []string{"2019-10-02T00:00:00Z", "2030-01-01T00:00:00Z"}},
		call{FnGetByTimeRange, []string{"2019-10-02T07:06:50Z", "2019-10-02T07:07:00Z"}},
		call{FnGetByTimeRange, []string{"2001-01-01T00:00:00Z", "2001-01-02T00:00:00Z"}},
	)
	for _, query := range []string{
		`{"selector":{"meta.type":"raw"}}`,
		`{"selector":{"meta.type":"nothing"}}`,
		`{"selector":{"owner":"` + testerSubject + `"},"limit":4}`,
		`{"selector":{"ts":{"$gt":0}},"sort":[{"ts":"desc"}],"limit":5}`,
		`{"selector":{"$or":[{"key":"root"},{"meta.v":"16"}]}}`,
		`{"selector":{"creator":{"$regex":"^sensor"}}}`,
		`{"checksum":{"$gte":"cs-r"}}`,
	} {
		calls = append(calls, call{FnRichQuery, []string{query}})
	}
	return calls
}

func TestReadPayloadsMatchReference(t *testing.T) {
	for name, l := range bothLedgers(t) {
		t.Run(name, func(t *testing.T) {
			keys := seedDAG(t, l)
			empty := map[string]bool{}
			for _, c := range readCalls(t, keys) {
				payload := l.same(t, c)
				if payload != nil {
					accepted(t, c, payload)
				}
				switch string(payload) {
				case "[]", "null", `{"records":null}`, `{"records":[]}`:
					empty[c.fn] = true
				}
			}
			for _, fn := range []string{FnGetDescendants, FnGetChildren, FnGetHistory, FnList, FnGetByCreator,
				FnGetByOwner, FnGetByType, FnQueryMeta, FnGetByTimeRange, FnRichQuery} {
				if !empty[fn] {
					t.Errorf("%s: no call returned an empty result", fn)
				}
			}
			// Explicit pagination walked to exhaustion, bookmark by bookmark.
			for _, query := range []string{`{"selector":{"owner":"` + testerSubject + `"}}`, `{"selector":{"ts":{"$gt":0}},"sort":[{"key":"desc"}]}`} {
				bookmark := ""
				for pages := 0; ; pages++ {
					c := call{FnRichQuery, []string{query, "3", bookmark}}
					payload := l.same(t, c)
					var page QueryPage
					if err := json.Unmarshal(payload, &page); err != nil {
						t.Fatal(err)
					}
					if bookmark = page.Next; bookmark == "" {
						if pages == 0 {
							t.Errorf("%s fit in one page", query)
						}
						break
					}
				}
			}
			// The fixture is what the header says it is.
			var versions, hist []HistoryRecord
			if err := json.Unmarshal(l.same(t, call{FnGetHistory, []string{"versioned"}}), &versions); err != nil || len(versions) != 17 {
				t.Errorf("versioned has %d versions (%v), want 17", len(versions), err)
			}
			if err := json.Unmarshal(l.same(t, call{FnGetHistory, []string{"phoenix"}}), &hist); err != nil ||
				len(hist) != 3 || !hist[1].IsDelete || hist[1].Record != nil || hist[2].Record == nil {
				t.Errorf("phoenix history = %+v (%v)", hist, err)
			}
			if got := recordKeys(t, l.query(FnGetLineage, "orphan")); fmt.Sprint(got) != "[orphan leaf join left right root root2]" {
				t.Errorf("lineage past a tombstone = %v", got)
			}
		})
	}
}

// A value set never writes, sitting where a traversal must read it, is
// reported by both renderers rather than forwarded.
func TestReadsReportNonRecordOnPath(t *testing.T) {
	l := newIndexedLedger(t)
	l.set(t, "a", "cs-a")
	l.set(t, "b", "cs-b", "a")
	for _, value := range []string{"not json", "42", `["a"]`, `{"key":"b"`} {
		l.plant(t, "b", []byte(value))
		for _, c := range []call{{FnGetLineage, []string{"b"}}, {FnGetDescendants, []string{"a"}}, {FnGetChildren, []string{"a"}}} {
			resp := l.query(c.fn, c.args...)
			if resp.Status == shim.OK || !strings.Contains(resp.Message, `corrupt record "b"`) {
				t.Errorf("%s over %q: status %d, message %q", c.fn, value, resp.Status, resp.Message)
			}
			l.same(t, c)
		}
	}
}

// Payloads alias nothing: a caller scribbling on one does not reach state.
func TestReadPayloadsDoNotAliasState(t *testing.T) {
	l := newIndexedLedger(t)
	seedDAG(t, l)
	for _, c := range []call{{FnGetLineage, []string{"join"}}, {FnGetDescendants, []string{"root"}},
		{FnGetHistory, []string{"versioned"}}, {FnGetByType, []string{"raw"}}, {FnList, []string{"{}"}}} {
		first := l.same(t, c)
		want := bytes.Clone(first)
		for i := range first {
			first[i] = 'X'
		}
		if again := l.same(t, c); !bytes.Equal(again, want) {
			t.Errorf("%s: payload changed after the previous one was overwritten", c.fn)
		}
	}
}

// FuzzSetThenRead writes one fuzzed record over a small DAG through set and
// requires every read function to render it exactly as the reference does,
// in a form the client decodes.
func FuzzSetThenRead(f *testing.F) {
	f.Add("k", "cs", "loc", "", "type", "raw", uint8(0))
	f.Add("root", "cs-2", "", "sensor <7> & co", "unit", "°C", uint8(0)) // a second version
	f.Add("new\u2028key", "<\xff>", "s3://b/k?a=1&b=2", "\"quoted\"", "a.b", "", uint8(3))
	f.Add("join", "cs-root", "x", "y", "", "\\", uint8(7))
	f.Add("\xf5", "0", "", "0", "\xfe", "\xff", uint8(1)) // not UTF-8: stored as U+FFFD
	f.Fuzz(func(t *testing.T, key, checksum, location, creator, metaKey, metaValue string, parents uint8) {
		l := newIndexedLedger(t)
		base := []string{"root", "left", "right"}
		l.set(t, "root", "cs-root")
		l.set(t, "left", "cs-left", "root")
		l.set(t, "right", "cs-right", "root")
		in := setArgs{Key: key, Checksum: checksum, Location: location, Creator: creator,
			Meta: map[string]string{metaKey: metaValue, "type": "fuzz"}}
		for i, p := range base {
			if parents&(1<<i) != 0 {
				in.Parents = append(in.Parents, p)
			}
		}
		resp := l.invoke(FnSet, mustJSON(t, in))
		if resp.Status != shim.OK {
			t.Skip() // set refused the record: nothing was stored
		}
		// set answers with the record it stored: the arguments as they came
		// through JSON (invalid UTF-8 replaced).
		var stored Record
		if err := json.Unmarshal(resp.Payload, &stored); err != nil {
			t.Fatalf("stored record does not decode: %v", err)
		}
		calls := []call{
			{FnList, []string{"{}"}},
			{FnGetByCreator, []string{stored.Creator}},
			{FnGetByOwner, []string{testerSubject}},
			{FnGetByType, []string{"fuzz"}},
			{FnQueryMeta, []string{metaKey, metaValue}},
			{FnGetByTimeRange, []string{"2019-10-02T00:00:00Z", "2030-01-01T00:00:00Z"}},
			{FnRichQuery, []string{mustJSON(t, map[string]any{"selector": map[string]any{"key": stored.Key}})}},
			{FnRichQuery, []string{`{"selector":{"ts":{"$gt":0}}}`, "2", ""}},
		}
		for _, k := range append(base, stored.Key) {
			for _, fn := range []string{FnGetLineage, FnGetDescendants, FnGetChildren, FnGetHistory} {
				calls = append(calls, call{fn, []string{k}})
			}
		}
		for _, c := range calls {
			if payload := l.same(t, c); payload != nil {
				accepted(t, c, payload)
			}
		}
	})
}
