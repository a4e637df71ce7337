package bench

import (
	"strings"
	"testing"
)

func TestQueryBenchSmoke(t *testing.T) {
	res := runQuick[QueryBenchResult](t, "query")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.IndexedUs <= 0 || row.ScanUs <= 0 {
			t.Errorf("non-positive timing: %+v", row)
		}
	}
	// The acceptance property: as state grows 4x, the scan path's latency
	// must grow substantially while the indexed path must not degrade the
	// same way (per-owner result size is constant across sizes only in
	// ratio; allow generous slack to keep the test robust on slow CI).
	small, large := res.Rows[0], res.Rows[1]
	if large.ScanUs < small.ScanUs {
		t.Logf("scan did not slow down on this machine: %+v vs %+v (timing noise tolerated)", small, large)
	}
	if large.Speedup < 1 {
		t.Errorf("indexed path slower than scan at %d records: %+v", large.Records, large)
	}
	if !strings.Contains(res.Format(), "records") {
		t.Error("Format missing header")
	}
}
