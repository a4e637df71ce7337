package provenance

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/hyperprov/hyperprov/internal/shim"
)

func (l *ledger) listPage(t *testing.T, prefix, after string, limit int) ListPage {
	t.Helper()
	in, err := json.Marshal(listArgs{Prefix: prefix, After: after, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	resp := l.query(FnList, string(in))
	if resp.Status != shim.OK {
		t.Fatalf("list: %s", resp.Message)
	}
	var page ListPage
	if err := json.Unmarshal(resp.Payload, &page); err != nil {
		t.Fatal(err)
	}
	return page
}

func TestListPrefixAndPagination(t *testing.T) {
	l := newLedger(t)
	for i := 0; i < 7; i++ {
		l.set(t, fmt.Sprintf("sensor/a-%d", i), fmt.Sprintf("ca%d", i))
	}
	for i := 0; i < 3; i++ {
		l.set(t, fmt.Sprintf("camera/b-%d", i), fmt.Sprintf("cb%d", i))
	}

	// Prefix filtering.
	page := l.listPage(t, "sensor/", "", 0)
	if len(page.Records) != 7 || page.Next != "" {
		t.Fatalf("sensor listing = %d records, next %q", len(page.Records), page.Next)
	}
	for _, rec := range page.Records {
		if rec.Key[:7] != "sensor/" {
			t.Errorf("foreign key %q in prefix listing", rec.Key)
		}
	}

	// Pagination: 3 per page over 7 records = 3 pages.
	var all []string
	after := ""
	pages := 0
	for {
		p := l.listPage(t, "sensor/", after, 3)
		pages++
		for _, rec := range p.Records {
			all = append(all, rec.Key)
		}
		if p.Next == "" {
			break
		}
		after = p.Next
		if pages > 5 {
			t.Fatal("pagination did not terminate")
		}
	}
	if pages != 3 || len(all) != 7 {
		t.Errorf("pages = %d, records = %d", pages, len(all))
	}
	seen := map[string]bool{}
	for _, k := range all {
		if seen[k] {
			t.Errorf("duplicate key %q across pages", k)
		}
		seen[k] = true
	}
}

func TestListEmptyAndBadArgs(t *testing.T) {
	l := newLedger(t)
	page := l.listPage(t, "none/", "", 0)
	if len(page.Records) != 0 {
		t.Errorf("empty prefix returned %d records", len(page.Records))
	}
	if resp := l.query(FnList, "not json"); resp.Status == shim.OK {
		t.Error("bad list args accepted")
	}
	if resp := l.query(FnList); resp.Status == shim.OK {
		t.Error("zero list args accepted")
	}
}

func TestGetByCreator(t *testing.T) {
	l := newLedger(t)
	l.set(t, "mine-1", "c1")
	l.set(t, "mine-2", "c2")
	creator := "x509::CN=tester,O=Org1,OU=client" // fixture's creator
	resp := l.query(FnGetByCreator, creator)
	if resp.Status != shim.OK {
		t.Fatalf("getByCreator: %s", resp.Message)
	}
	var recs []Record
	if err := json.Unmarshal(resp.Payload, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("records = %d, want 2", len(recs))
	}
	// Unknown creator yields empty result, not an error.
	resp = l.query(FnGetByCreator, "x509::CN=stranger,O=Org1,OU=client")
	if resp.Status != shim.OK {
		t.Fatal(resp.Message)
	}
	if err := json.Unmarshal(resp.Payload, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("stranger has %d records", len(recs))
	}
}

func TestQueryMeta(t *testing.T) {
	l := newLedger(t)
	mkSet := func(key, metaVal string) {
		in, err := json.Marshal(setArgs{Key: key, Checksum: "c-" + key,
			Meta: map[string]string{"type": metaVal}})
		if err != nil {
			t.Fatal(err)
		}
		if resp := l.invoke(FnSet, string(in)); resp.Status != shim.OK {
			t.Fatal(resp.Message)
		}
	}
	mkSet("a", "raw")
	mkSet("b", "raw")
	mkSet("c", "aggregate")

	resp := l.query(FnQueryMeta, "type", "raw")
	if resp.Status != shim.OK {
		t.Fatal(resp.Message)
	}
	var recs []Record
	if err := json.Unmarshal(resp.Payload, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("raw records = %d, want 2", len(recs))
	}
	if resp := l.query(FnQueryMeta, "type"); resp.Status == shim.OK {
		t.Error("queryMeta with 1 arg accepted")
	}
}

func TestGetChildrenDirectOnly(t *testing.T) {
	l := newLedger(t)
	l.set(t, "root", "c0")
	l.set(t, "mid", "c1", "root")
	l.set(t, "leaf", "c2", "mid")

	resp := l.query(FnGetChildren, "root")
	if resp.Status != shim.OK {
		t.Fatal(resp.Message)
	}
	var recs []Record
	if err := json.Unmarshal(resp.Payload, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != "mid" {
		t.Errorf("children of root = %+v, want [mid] only", recs)
	}
}

func TestVersionReported(t *testing.T) {
	l := newLedger(t)
	resp := l.query(FnVersion)
	if resp.Status != shim.OK || string(resp.Payload) != Version {
		t.Errorf("version = %q %s", resp.Payload, resp.Message)
	}
}

// A page of list must read O(limit) state, not O(range): over 500 records a
// limit-10 page records at most 11 keys in its phantom-protection range read
// (the page plus the one-key lookahead), and walking Next to exhaustion
// still returns exactly what one scan of the whole range returns.
func TestListReadsOnlyItsPage(t *testing.T) {
	l := newLedger(t)
	const total = 500
	for i := 0; i < total; i++ {
		l.set(t, fmt.Sprintf("item/%04d", i), fmt.Sprintf("c%d", i))
	}
	in, err := json.Marshal(listArgs{Prefix: "item/", Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	stub := l.stub(FnList, [][]byte{in})
	if resp := l.cc.Invoke(stub); resp.Status != shim.OK {
		t.Fatalf("list: %s", resp.Message)
	}
	observed := 0
	for _, rr := range stub.RWSet().RangeReads {
		observed += len(rr.Keys)
	}
	if observed == 0 || observed > 11 {
		t.Errorf("a limit-10 page recorded %d keys in its range reads, want 1..11", observed)
	}

	scan, err := l.stub(FnList, nil).GetStateByRange("item/", "item/\xff")
	if err != nil {
		t.Fatal(err)
	}
	var walked []string
	for after, pages := "", 0; ; pages++ {
		if pages > total/10+1 {
			t.Fatal("pagination did not terminate")
		}
		p := l.listPage(t, "item/", after, 10)
		for _, rec := range p.Records {
			walked = append(walked, rec.Key)
		}
		if p.Next == "" {
			break
		}
		after = p.Next
	}
	if len(walked) != len(scan) || len(scan) != total {
		t.Fatalf("walked %d keys, one scan holds %d, want %d", len(walked), len(scan), total)
	}
	for i, kv := range scan {
		if walked[i] != kv.Key {
			t.Fatalf("key %d: walked %q, scan %q", i, walked[i], kv.Key)
		}
	}
}
