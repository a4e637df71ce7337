package bench

import "testing"

// TestMVCCSweepSmoke runs a tiny contention sweep end to end: equivalence
// must hold at every overlap point, throughput must be positive, and
// contention must shape the outcome — full overlap invalidates
// transactions and narrows the average wavefront.
func TestMVCCSweepSmoke(t *testing.T) {
	cfg := mvccSweepConfigFor(true)
	res := runQuick[MVCCSweepResult](t, "mvcc-sweep")
	if len(res.Rows) != len(cfg.Overlaps) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(cfg.Overlaps))
	}
	for _, row := range res.Rows {
		if row.SequentialTps <= 0 || row.ParallelTps <= 0 || row.Speedup <= 0 {
			t.Errorf("row %+v has non-positive rates", row)
		}
	}
	free, contended := res.Rows[0], res.Rows[len(res.Rows)-1]
	if free.ValidPct != 100 {
		t.Errorf("0%% overlap valid = %.1f%%, want 100%%", free.ValidPct)
	}
	// Full overlap: one winner per hot key per block.
	if want := float64(cfg.HotKeys*cfg.Blocks) / float64(cfg.BlockSize*cfg.Blocks) * 100; contended.ValidPct != want {
		t.Errorf("100%% overlap valid = %.1f%%, want %.1f%%", contended.ValidPct, want)
	}
	// 0% overlap is one wave of width blockSize; full overlap fragments
	// into chained waves no wider than the hot pool (+1 for the rare
	// boundary wave shapes).
	if free.AvgWaveWidth != float64(cfg.BlockSize) {
		t.Errorf("0%% overlap avg wave = %.1f, want %d", free.AvgWaveWidth, cfg.BlockSize)
	}
	if contended.AvgWaveWidth > float64(cfg.HotKeys)+1 {
		t.Errorf("100%% overlap avg wave = %.1f, want <= %d", contended.AvgWaveWidth, cfg.HotKeys+1)
	}
	if res.Format() == "" {
		t.Error("empty format")
	}
}
