package peer

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
)

// commit runs fn through endorsement and commit and requires it valid.
func (f *fixture) commit(fn string, args ...string) {
	f.t.Helper()
	prop := f.propose(fn, args...)
	resp, err := f.peer.ProcessProposal(prop)
	if err != nil {
		f.t.Fatalf("%s %v: %v", fn, args, err)
	}
	env := f.envelopeFor(prop, resp)
	f.commitEnvs(env)
	if code := f.committed(env.TxID).Code; code != blockstore.TxValid {
		f.t.Fatalf("%s %v: %s", fn, args, code)
	}
}

// query runs fn as a query from the fixture's client and returns its payload.
func (f *fixture) query(fn string, args ...string) []byte {
	f.t.Helper()
	raw := make([][]byte, len(args))
	for i, a := range args {
		raw[i] = []byte(a)
	}
	resp, err := f.peer.Query(provenance.ChaincodeName, fn, raw, f.client.Serialize())
	if err != nil || resp.Status != 200 {
		f.t.Fatalf("query %s %v: %v %d %s", fn, args, err, resp.Status, resp.Message)
	}
	return resp.Payload
}

// A query keeps no read set, and that is all it leaves out: every read
// function of the provenance chaincode answers a query with the bytes it
// answers the same call's endorsement with, and neither moves the state or
// the chain.
func TestQueryPayloadsEqualEndorsed(t *testing.T) {
	f := newFixture(t)
	// A DAG of twelve typed records — r00 the root, each later one derived
	// from one or two earlier ones — and one of them rewritten twice.
	for i := range 12 {
		var parents []string
		for _, p := range []int{i - 1, i / 2} {
			if p >= 0 && p < i && (len(parents) == 0 || parents[0] != fmt.Sprintf("r%02d", p)) {
				parents = append(parents, fmt.Sprintf("r%02d", p))
			}
		}
		f.set(fmt.Sprintf("r%02d", i), fmt.Sprintf("sha256:%02d", i), parents...)
	}
	for v := range 3 {
		f.commit(provenance.FnSet, fmt.Sprintf(`{"key":"typed","checksum":"sha256:t%d","parents":["r03"],"meta":{"type":"raw"}}`, v))
	}
	f.commit(provenance.FnSet, `{"key":"other","checksum":"sha256:o","meta":{"type":"raw"}}`)

	height, fingerprint := f.peer.Height(), f.peer.StateFingerprint()
	for _, call := range [][]string{
		{provenance.FnGet, "r07"},
		{provenance.FnGetByChecksum, "sha256:05"},
		{provenance.FnGetHistory, "typed"},
		{provenance.FnGetLineage, "r11"},
		{provenance.FnGetLineage, "typed"},
		{provenance.FnGetDescendants, "r00"},
		{provenance.FnGetByType, "raw"},
		{provenance.FnGetByType, "none"},
		{provenance.FnRichQuery, `{"selector":{"checksum":{"$gte":"sha256:08"}},"sort":[{"checksum":"desc"}]}`},
		{provenance.FnRichQuery, `{"selector":{"key":{"$gt":"r"}}}`, "4", ""},
		{provenance.FnList, `{"prefix":"r","limit":5}`},
		{provenance.FnList, `{"prefix":"r","after":"r09"}`},
		{provenance.FnGetStats},
	} {
		resp, err := f.peer.ProcessProposal(f.propose(call[0], call[1:]...))
		if err != nil {
			t.Fatalf("endorse %v: %v", call, err)
		}
		if got := f.query(call[0], call[1:]...); !bytes.Equal(got, resp.Payload) {
			t.Errorf("%v: query answered\n%s\nendorsement answered\n%s", call, got, resp.Payload)
		}
	}
	if f.peer.Height() != height || f.peer.StateFingerprint() != fingerprint {
		t.Error("a read moved the chain or the state")
	}
}

// queryAllocBudget is what one getLineage query over a 64-record chain
// allocates, measured on linux/amd64 with Go 1.24 (154 at the time of
// setting, 218 while the walk copied every record it read, 355 while a query
// still kept a read set), plus 5%.
const queryAllocBudget = 162

// byTypeAllocBudget is what one getByType query over 16 typed records — an
// exact index range — allocates, measured on linux/amd64 with Go 1.24 (72
// at the time of setting, 128 while the selector was marshalled from maps
// and every key of the range got its own order key, 173 while the stub
// parsed the query twice and marshalled it for a query too), plus 5%.
const byTypeAllocBudget = 76

// A query's allocations are deterministic: the lineage of a 64-record chain
// and the typed records of one getByType cost a fixed count each, which the
// read path must not grow.
func TestQueryAllocs(t *testing.T) {
	for _, row := range []struct {
		name, fn, arg string
		seed          func(f *fixture)
		records       int
		budget        float64
	}{
		{"getLineage", provenance.FnGetLineage, "c63", seedChain, 64, queryAllocBudget},
		{"getByType", provenance.FnGetByType, "raw", func(f *fixture) {
			for i := range 16 {
				f.commit(provenance.FnSet, fmt.Sprintf(`{"key":"t%02d","checksum":"sha256:%02d","meta":{"type":"raw"}}`, i, i))
			}
		}, 16, byTypeAllocBudget},
	} {
		t.Run(row.name, func(t *testing.T) {
			f := newFixture(t)
			row.seed(f)
			if n := bytes.Count(f.query(row.fn, row.arg), []byte(`"key":`)); n != row.records {
				t.Fatalf("%s holds %d records, want %d", row.fn, n, row.records)
			}
			args, creator := [][]byte{[]byte(row.arg)}, f.client.Serialize()
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := f.peer.Query(provenance.ChaincodeName, row.fn, args, creator); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s over %d records: %.0f allocations per query", row.fn, row.records, allocs)
			if allocs > row.budget {
				t.Errorf("%s over %d records: %.0f allocations, budget %.0f", row.fn, row.records, allocs, row.budget)
			}
		})
	}
}

// seedChain commits a 64-record chain, c00 ← c01 ← … ← c63, whose lineage
// from c63 is every record.
func seedChain(f *fixture) {
	for i := range 64 {
		var parents []string
		if i > 0 {
			parents = []string{fmt.Sprintf("c%02d", i-1)}
		}
		f.set(fmt.Sprintf("c%02d", i), fmt.Sprintf("sha256:%02d", i), parents...)
	}
}

// lineageBytesBudget bounds the heap bytes one getLineage query over a
// 64-record chain allocates, as a multiple of its payload: measured on
// linux/amd64 with Go 1.24, 1.68× at the time of setting and 2.70× while
// the walk read each record through GetState's copy.
const lineageBytesBudget = 2.0

// The lineage walk reads each stored record as a view: the reply is the one
// copy of every record it returns, so the bytes a query allocates stay
// within a small multiple of the payload it answers with.
func TestLineageQueryBytes(t *testing.T) {
	f := newFixture(t)
	seedChain(f)
	payload := f.query(provenance.FnGetLineage, "c63")
	args, creator := [][]byte{[]byte("c63")}, f.client.Serialize()
	perQuery := bytesPerRun(50, func() {
		if _, err := f.peer.Query(provenance.ChaincodeName, provenance.FnGetLineage, args, creator); err != nil {
			t.Fatal(err)
		}
	})
	ratio := perQuery / float64(len(payload))
	t.Logf("getLineage over 64 records: %.0f bytes per query, %.2f× its %d-byte payload", perQuery, ratio, len(payload))
	if raceEnabled {
		t.Skip("slices.Grow allocates twice under -race")
	}
	if ratio > lineageBytesBudget {
		t.Errorf("getLineage allocates %.2f× its payload, budget %.2f×", ratio, lineageBytesBudget)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls after a warm-up call, at
// GOMAXPROCS(1).
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
