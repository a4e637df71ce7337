package provenance

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// ledger is a single-peer test harness: it invokes the chaincode and, on
// success, commits the rwset writes to state, appends the transaction to
// the chain as a one-transaction block, and records its history locators
// (the job the peer commit pipeline does in production).
type ledger struct {
	t       testing.TB
	cc      *Chaincode
	state   statedb.StateDB
	blocks  *blockstore.Store
	history *historydb.DB
	block   uint64
}

// newLedger uses the plain LevelDB-flavour store, so rich queries exercise
// the shim's filtered-scan fallback path.
func newLedger(t testing.TB) *ledger {
	t.Helper()
	return newLedgerOn(t, statedb.New())
}

func newLedgerOn(t testing.TB, state statedb.StateDB) *ledger {
	t.Helper()
	blocks := blockstore.NewStore()
	l := &ledger{t: t, cc: New(), state: state, blocks: blocks, history: historydb.NewIndex(blocks), block: 0}
	resp := l.commitInvoke("", nil, func(stub *shim.Stub) shim.Response { return l.cc.Init(stub) })
	if resp.Status != shim.OK {
		t.Fatalf("Init: %+v", resp)
	}
	return l
}

func (l *ledger) stub(fn string, args [][]byte) *shim.Stub {
	l.block++
	return shim.NewStub(shim.Config{
		TxID:      fmt.Sprintf("tx-%d", l.block),
		ChannelID: "ch",
		Function:  fn,
		Args:      args,
		Creator:   []byte("x509::CN=tester,O=Org1,OU=client"),
		Timestamp: time.Unix(int64(1570000000+l.block), 0).UTC(),
		State:     l.state,
		History:   l.history,
	})
}

func (l *ledger) commitInvoke(fn string, args [][]byte, run func(*shim.Stub) shim.Response) shim.Response {
	stub := l.stub(fn, args)
	resp := run(stub)
	if resp.Status != shim.OK {
		return resp
	}
	rws := stub.RWSet()
	env := blockstore.Envelope{TxID: stub.TxID(), Timestamp: stub.TxTimestamp(), RWSet: rws.Marshal()}
	b := blockstore.NewBlock(l.blocks.Height(), l.blocks.LastHash(), []blockstore.Envelope{env})
	b.TxValidation = []blockstore.ValidationCode{blockstore.TxValid}
	if err := l.blocks.Append(b); err != nil {
		l.t.Fatalf("commit: %v", err)
	}
	batch := statedb.NewUpdateBatch()
	ver := statedb.Version{BlockNum: l.block}
	for _, w := range rws.Writes {
		if w.IsDelete {
			batch.Delete(w.Key, ver)
		} else {
			batch.Put(w.Key, w.Value, ver)
		}
		l.history.Record(w.Key, historydb.Entry{BlockNum: b.Header.Number, IsDelete: w.IsDelete})
	}
	if err := l.state.ApplyUpdates(batch, ver); err != nil {
		l.t.Fatalf("commit: %v", err)
	}
	return resp
}

// invoke runs a function through the full simulate-and-commit path.
func (l *ledger) invoke(fn string, args ...string) shim.Response {
	raw := make([][]byte, len(args))
	for i, a := range args {
		raw[i] = []byte(a)
	}
	return l.commitInvoke(fn, raw, func(stub *shim.Stub) shim.Response { return l.cc.Invoke(stub) })
}

// query runs a read-only invocation without committing.
func (l *ledger) query(fn string, args ...string) shim.Response {
	raw := make([][]byte, len(args))
	for i, a := range args {
		raw[i] = []byte(a)
	}
	return l.cc.Invoke(l.stub(fn, raw))
}

func (l *ledger) set(t testing.TB, key, checksum string, parents ...string) {
	t.Helper()
	in := setArgs{Key: key, Checksum: checksum, Location: "offchain://store/" + key, Parents: parents}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp := l.invoke(FnSet, string(b))
	if resp.Status != shim.OK {
		t.Fatalf("set %q: %s", key, resp.Message)
	}
}

func decodeRecord(t *testing.T, payload []byte) Record {
	t.Helper()
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		t.Fatalf("decode record: %v", err)
	}
	return r
}

func TestSetGetRoundTrip(t *testing.T) {
	l := newLedger(t)
	l.set(t, "item1", "sha256:abc")
	resp := l.query(FnGet, "item1")
	if resp.Status != shim.OK {
		t.Fatalf("get: %s", resp.Message)
	}
	rec := decodeRecord(t, resp.Payload)
	if rec.Key != "item1" || rec.Checksum != "sha256:abc" {
		t.Errorf("record = %+v", rec)
	}
	if rec.Creator == "" || rec.TxID == "" {
		t.Errorf("record missing provenance context: %+v", rec)
	}
	if rec.Location != "offchain://store/item1" {
		t.Errorf("location = %q", rec.Location)
	}
}

func TestGetMissing(t *testing.T) {
	l := newLedger(t)
	if resp := l.query(FnGet, "ghost"); resp.Status == shim.OK {
		t.Error("get of missing key succeeded")
	}
}

func TestSetValidation(t *testing.T) {
	l := newLedger(t)
	tests := []struct {
		name string
		args setArgs
	}{
		{"empty key", setArgs{Checksum: "c"}},
		{"empty checksum", setArgs{Key: "k"}},
		{"self parent", setArgs{Key: "k", Checksum: "c", Parents: []string{"k"}}},
		{"unknown parent", setArgs{Key: "k", Checksum: "c", Parents: []string{"missing"}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b, err := json.Marshal(tt.args)
			if err != nil {
				t.Fatal(err)
			}
			if resp := l.invoke(FnSet, string(b)); resp.Status == shim.OK {
				t.Errorf("set accepted invalid args %+v", tt.args)
			}
		})
	}
	if resp := l.invoke(FnSet, "not json"); resp.Status == shim.OK {
		t.Error("set accepted non-JSON args")
	}
	if resp := l.invoke(FnSet); resp.Status == shim.OK {
		t.Error("set accepted zero args")
	}
}

func TestHistoryTracksVersions(t *testing.T) {
	l := newLedger(t)
	l.set(t, "item", "sha256:v1")
	l.set(t, "item", "sha256:v2")
	l.set(t, "item", "sha256:v3")
	resp := l.query(FnGetHistory, "item")
	if resp.Status != shim.OK {
		t.Fatalf("getHistory: %s", resp.Message)
	}
	var hist []HistoryRecord
	if err := json.Unmarshal(resp.Payload, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history has %d entries, want 3", len(hist))
	}
	if hist[0].Record.Checksum != "sha256:v1" || hist[2].Record.Checksum != "sha256:v3" {
		t.Errorf("history order wrong: %+v", hist)
	}
}

func TestGetByChecksum(t *testing.T) {
	l := newLedger(t)
	l.set(t, "item1", "sha256:unique")
	resp := l.query(FnGetByChecksum, "sha256:unique")
	if resp.Status != shim.OK {
		t.Fatalf("getByChecksum: %s", resp.Message)
	}
	if rec := decodeRecord(t, resp.Payload); rec.Key != "item1" {
		t.Errorf("resolved key = %q", rec.Key)
	}
	if resp := l.query(FnGetByChecksum, "sha256:nope"); resp.Status == shim.OK {
		t.Error("unknown checksum resolved")
	}
}

// The checksum index entry belongs to the last record written with the
// checksum: deleting another record that shares it leaves it alone.
func TestDeleteKeepsChecksumEntryOfAnotherRecord(t *testing.T) {
	for name, l := range bothLedgers(t) {
		t.Run(name, func(t *testing.T) {
			l.set(t, "a", "sha256:same")
			l.set(t, "b", "sha256:same")
			if resp := l.invoke(FnDelete, "a"); resp.Status != shim.OK {
				t.Fatalf("delete a: %s", resp.Message)
			}
			resp := l.query(FnGetByChecksum, "sha256:same")
			if resp.Status != shim.OK {
				t.Fatalf("b is live with the checksum, yet: %s", resp.Message)
			}
			if rec := decodeRecord(t, resp.Payload); rec.Key != "b" {
				t.Errorf("resolved key = %q, want b", rec.Key)
			}
			if resp := l.invoke(FnDelete, "b"); resp.Status != shim.OK {
				t.Fatalf("delete b: %s", resp.Message)
			}
			if resp := l.query(FnGetByChecksum, "sha256:same"); resp.Status == shim.OK {
				t.Error("checksum resolves with both records deleted")
			}
		})
	}
}

// A rewrite retires the entry of the checksum it replaces, and an entry a
// ledger written before that still carries answers "not found", never a
// record with another checksum.
func TestRewriteRetiresOldChecksum(t *testing.T) {
	for name, l := range bothLedgers(t) {
		t.Run(name, func(t *testing.T) {
			l.set(t, "a", "sha256:v1")
			l.set(t, "a", "sha256:v2")
			resp := l.query(FnGetByChecksum, "sha256:v1")
			if resp.Status == shim.OK || !strings.Contains(resp.Message, `checksum "sha256:v1" not found`) {
				t.Errorf("old checksum: status %d, %q, payload %s", resp.Status, resp.Message, resp.Payload)
			}
			if rec := decodeRecord(t, l.query(FnGetByChecksum, "sha256:v2").Payload); rec.Key != "a" {
				t.Errorf("new checksum resolves to %q", rec.Key)
			}
			// The old checksum moved to another record: rewriting a again
			// must not take that record's entry.
			l.set(t, "b", "sha256:v2")
			l.set(t, "a", "sha256:v3")
			if rec := decodeRecord(t, l.query(FnGetByChecksum, "sha256:v2").Payload); rec.Key != "b" {
				t.Errorf("sha256:v2 resolves to %q, want b", rec.Key)
			}
			// A stale entry planted as old ledgers hold them.
			csKey, err := l.stub("", nil).CreateCompositeKey(idxChecksum, []string{"sha256:v1"})
			if err != nil {
				t.Fatal(err)
			}
			l.plant(t, csKey, []byte("a"))
			if resp := l.query(FnGetByChecksum, "sha256:v1"); resp.Status == shim.OK {
				t.Errorf("stale entry answered %s", resp.Payload)
			}
		})
	}
}

// A set of a fresh key reads and writes what it always did: the retirement
// costs rewrites only.
func TestFreshSetTouchesNoExtraKeys(t *testing.T) {
	l := newLedger(t)
	l.set(t, "p", "sha256:p")
	stub := l.stub(FnSet, [][]byte{[]byte(`{"key":"k","checksum":"sha256:k","parents":["p"]}`)})
	if resp := l.cc.Invoke(stub); resp.Status != shim.OK {
		t.Fatal(resp.Message)
	}
	rws := stub.RWSet()
	if len(rws.Reads) != 2 || len(rws.Writes) != 3 {
		t.Errorf("fresh set: %d reads, %d writes; want 2 (parent, key) and 3 (record, checksum entry, edge)", len(rws.Reads), len(rws.Writes))
	}
}

func TestLineageAncestors(t *testing.T) {
	l := newLedger(t)
	// raw1, raw2 -> derived -> final
	l.set(t, "raw1", "c1")
	l.set(t, "raw2", "c2")
	l.set(t, "derived", "c3", "raw1", "raw2")
	l.set(t, "final", "c4", "derived")

	resp := l.query(FnGetLineage, "final")
	if resp.Status != shim.OK {
		t.Fatalf("getLineage: %s", resp.Message)
	}
	var recs []Record
	if err := json.Unmarshal(resp.Payload, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("lineage has %d records, want 4 (final, derived, raw1, raw2)", len(recs))
	}
	if recs[0].Key != "final" {
		t.Errorf("lineage[0] = %q, want final (BFS from query key)", recs[0].Key)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.Key] = true
	}
	for _, want := range []string{"final", "derived", "raw1", "raw2"} {
		if !seen[want] {
			t.Errorf("lineage missing %q", want)
		}
	}
}

func TestLineageDiamondNoDuplicates(t *testing.T) {
	l := newLedger(t)
	// root -> a, root -> b, a+b -> leaf (diamond)
	l.set(t, "root", "c0")
	l.set(t, "a", "ca", "root")
	l.set(t, "b", "cb", "root")
	l.set(t, "leaf", "cl", "a", "b")
	resp := l.query(FnGetLineage, "leaf")
	if resp.Status != shim.OK {
		t.Fatal(resp.Message)
	}
	var recs []Record
	if err := json.Unmarshal(resp.Payload, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Errorf("diamond lineage = %d records, want 4 (root deduplicated)", len(recs))
	}
}

func TestDescendants(t *testing.T) {
	l := newLedger(t)
	l.set(t, "root", "c0")
	l.set(t, "mid", "c1", "root")
	l.set(t, "leaf1", "c2", "mid")
	l.set(t, "leaf2", "c3", "mid")
	l.set(t, "unrelated", "c4")

	resp := l.query(FnGetDescendants, "root")
	if resp.Status != shim.OK {
		t.Fatalf("getDescendants: %s", resp.Message)
	}
	var recs []Record
	if err := json.Unmarshal(resp.Payload, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("descendants = %d, want 3", len(recs))
	}
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.Key] = true
	}
	if seen["unrelated"] || seen["root"] {
		t.Errorf("descendants include wrong keys: %v", seen)
	}
}

func TestDeleteTombstonesButKeepsHistory(t *testing.T) {
	l := newLedger(t)
	l.set(t, "item", "sha256:x")
	if resp := l.invoke(FnDelete, "item"); resp.Status != shim.OK {
		t.Fatalf("delete: %s", resp.Message)
	}
	if resp := l.query(FnGet, "item"); resp.Status == shim.OK {
		t.Error("get after delete succeeded")
	}
	// History survives the tombstone.
	resp := l.query(FnGetHistory, "item")
	if resp.Status != shim.OK {
		t.Fatal(resp.Message)
	}
	var hist []HistoryRecord
	if err := json.Unmarshal(resp.Payload, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || !hist[1].IsDelete {
		t.Errorf("history after delete = %+v", hist)
	}
	// Checksum index removed.
	if resp := l.query(FnGetByChecksum, "sha256:x"); resp.Status == shim.OK {
		t.Error("checksum resolves after delete")
	}
	if resp := l.invoke(FnDelete, "item"); resp.Status == shim.OK {
		t.Error("double delete succeeded")
	}
}

func TestStatsCounter(t *testing.T) {
	l := newLedger(t)
	readStats := func() Stats {
		resp := l.query(FnGetStats)
		if resp.Status != shim.OK {
			t.Fatalf("getStats: %s", resp.Message)
		}
		var s Stats
		if err := json.Unmarshal(resp.Payload, &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if s := readStats(); s.Records != 0 {
		t.Errorf("initial records = %d", s.Records)
	}
	l.set(t, "a", "c1")
	l.set(t, "b", "c2")
	l.set(t, "a", "c1b") // update, not a new record
	if s := readStats(); s.Records != 2 {
		t.Errorf("records = %d, want 2", s.Records)
	}
	if resp := l.invoke(FnDelete, "a"); resp.Status != shim.OK {
		t.Fatal(resp.Message)
	}
	if s := readStats(); s.Records != 1 {
		t.Errorf("records after delete = %d, want 1", s.Records)
	}
}

func TestUnknownFunction(t *testing.T) {
	l := newLedger(t)
	if resp := l.query("fly"); resp.Status == shim.OK {
		t.Error("unknown function succeeded")
	}
}

func TestArgCountErrors(t *testing.T) {
	l := newLedger(t)
	l.set(t, "k", "c")
	for _, fn := range []string{FnGet, FnGetHistory, FnGetByChecksum, FnGetLineage, FnGetDescendants, FnDelete} {
		if resp := l.query(fn); resp.Status == shim.OK {
			t.Errorf("%s with 0 args succeeded", fn)
		}
		if resp := l.query(fn, "a", "b"); resp.Status == shim.OK {
			t.Errorf("%s with 2 args succeeded", fn)
		}
	}
}

func TestDeepChainLineage(t *testing.T) {
	l := newLedger(t)
	l.set(t, "n0", "c0")
	for i := 1; i < 30; i++ {
		l.set(t, fmt.Sprintf("n%d", i), fmt.Sprintf("c%d", i), fmt.Sprintf("n%d", i-1))
	}
	resp := l.query(FnGetLineage, "n29")
	if resp.Status != shim.OK {
		t.Fatal(resp.Message)
	}
	var recs []Record
	if err := json.Unmarshal(resp.Payload, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 30 {
		t.Errorf("deep lineage = %d records, want 30", len(recs))
	}
}
