package bench

import "testing"

// Quick multi-channel run: every configured count produces a row, adding
// channels must not shrink aggregate modeled throughput below the single
// channel's, and the isolation section reports both tenants.
func TestChannelBenchQuick(t *testing.T) {
	cfg := channelConfigFor(true)
	res := runQuick[ChannelBenchResult](t, "channels")
	if len(res.Rows) != len(cfg.ChannelCounts) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(cfg.ChannelCounts))
	}
	base := res.Rows[0]
	if base.Channels != cfg.ChannelCounts[0] || base.Speedup != 1.0 {
		t.Errorf("baseline row = %+v", base)
	}
	for _, row := range res.Rows {
		if row.AggregateTps <= 0 || row.P99Ms <= 0 {
			t.Errorf("degenerate row %+v", row)
		}
		if row.PerChannelTps*float64(row.Channels)-row.AggregateTps > 1e-6 {
			t.Errorf("per-channel column inconsistent: %+v", row)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	// The quick config just has to show additional channels helping at all
	// on a loaded CI runner; the figure-quality run reads >= 1.7x at 4.
	if last.Speedup < 1.0 {
		t.Errorf("aggregate throughput shrank with %d channels: %.2fx", last.Channels, last.Speedup)
	}
	iso := res.Isolation
	if iso == nil {
		t.Fatal("no isolation section")
	}
	if iso.QuietSoloP99Ms <= 0 || iso.QuietHotP99Ms <= 0 || iso.HotTps <= 0 {
		t.Errorf("degenerate isolation %+v", iso)
	}
}
