package bench

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.P50 != 50*time.Millisecond {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P95 != 95*time.Millisecond {
		t.Errorf("p95 = %v", s.P95)
	}
	if s.P99 != 99*time.Millisecond {
		t.Errorf("p99 = %v", s.P99)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Errorf("mean = %v", s.Mean)
	}
}

func TestHistogramEmpty(t *testing.T) {
	if s := NewHistogram().Summarize(); s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummaryScaled(t *testing.T) {
	s := Summary{Count: 10, Mean: time.Millisecond, P50: 2 * time.Millisecond}
	scaled := s.Scaled(0.01) // 100x compression -> modeled 100x larger
	if scaled.Mean != 100*time.Millisecond || scaled.P50 != 200*time.Millisecond {
		t.Errorf("scaled = %+v", scaled)
	}
	if scaled.Count != 10 {
		t.Error("count must not scale")
	}
	if same := s.Scaled(1); same != s {
		t.Error("scale 1 changed summary")
	}
	if same := s.Scaled(0); same != s {
		t.Error("scale 0 changed summary")
	}
}

func TestFormatSize(t *testing.T) {
	tests := []struct {
		n    int
		want string
	}{
		{512, "512B"}, {1 << 10, "1KiB"}, {64 << 10, "64KiB"}, {4 << 20, "4MiB"},
	}
	for _, tt := range tests {
		if got := FormatSize(tt.n); got != tt.want {
			t.Errorf("FormatSize(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestRunClosedLoop(t *testing.T) {
	var mu sync.Mutex
	count := 0
	res := RunClosedLoop(4, 100*time.Millisecond, func(w, it int) error {
		mu.Lock()
		count++
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return nil
	})
	if res.Ops == 0 || int(res.Ops) != count {
		t.Errorf("ops = %d, count = %d", res.Ops, count)
	}
	if res.Latency.Count() != int(res.Ops) {
		t.Errorf("latency samples = %d", res.Latency.Count())
	}
	if res.Throughput() <= 0 {
		t.Error("zero throughput")
	}
}

func TestRunClosedLoopErrors(t *testing.T) {
	boom := errors.New("boom")
	res := RunClosedLoop(2, 50*time.Millisecond, func(w, it int) error {
		time.Sleep(time.Millisecond)
		if it%2 == 1 {
			return boom
		}
		return nil
	})
	if res.Errs == 0 {
		t.Error("no errors recorded")
	}
	if res.Latency.Count() != int(res.Ops) {
		t.Error("failed ops must not record latency")
	}
}

func TestModeledThroughput(t *testing.T) {
	r := RunResult{Ops: 100, WallDuration: time.Second}
	if got := r.ModeledThroughput(0.05); got != 5 {
		t.Errorf("modeled tput = %v, want 5", got)
	}
	if got := r.ModeledThroughput(0); got != 100 {
		t.Errorf("unscaled tput = %v, want 100", got)
	}
	if (RunResult{}).Throughput() != 0 {
		t.Error("zero-duration throughput not 0")
	}
}

// runQuick looks the named experiment up in Experiments, runs it in quick
// mode and returns its report as the concrete type T.
func runQuick[T Report](t *testing.T, name string) T {
	t.Helper()
	for _, e := range Experiments {
		if e.Name != name {
			continue
		}
		rep, err := e.Run(true)
		if err != nil {
			t.Fatal(err)
		}
		res, ok := rep.(T)
		if !ok {
			t.Fatalf("%s returned %T", name, rep)
		}
		return res
	}
	t.Fatalf("no experiment %q in Experiments", name)
	return *new(T)
}

func TestResultFormat(t *testing.T) {
	r := Result{Name: "Fig X", Description: "desc", Rows: []Row{
		{Label: "1KiB", Throughput: 42.5, Latency: Summary{Mean: 10 * time.Millisecond}},
	}}
	out := r.Format()
	for _, want := range []string{"Fig X", "1KiB", "42.50", "tput"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

// TestQuickSweepSmoke runs the smallest real figure sweep end to end. It
// exercises the full bench path (network per point, scaled clock, shared
// client executor) and checks the paper's qualitative shape: throughput
// falls and latency rises with payload size.
func TestQuickSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke test skipped in -short mode")
	}
	cfg := sweepConfigFor(true)
	res := runQuick[Result](t, "fig1")
	if len(res.Rows) != len(cfg.Sizes) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.Throughput <= last.Throughput {
		t.Errorf("throughput did not fall with size: %.2f -> %.2f",
			first.Throughput, last.Throughput)
	}
	if first.Latency.Mean >= last.Latency.Mean {
		t.Errorf("latency did not rise with size: %v -> %v",
			first.Latency.Mean, last.Latency.Mean)
	}
	for _, row := range res.Rows {
		if row.Errors > 0 {
			t.Errorf("%s: %d errors", row.Label, row.Errors)
		}
	}
}

func TestQuickEnergySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("energy smoke test skipped in -short mode")
	}
	res := runQuick[EnergyResult](t, "fig3")
	if len(res.Rows) != 4 { // idle + 2 load levels + saturation anchor
		t.Fatalf("rows = %d: %+v", len(res.Rows), res.Rows)
	}
	idle, hlfIdle, loaded, peak := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	if !(idle.AvgWatts < hlfIdle.AvgWatts && hlfIdle.AvgWatts < loaded.AvgWatts &&
		loaded.AvgWatts < peak.AvgWatts) {
		t.Errorf("power ordering violated: %.2f %.2f %.2f %.2f",
			idle.AvgWatts, hlfIdle.AvgWatts, loaded.AvgWatts, peak.AvgWatts)
	}
	if loaded.Utilization <= 0 {
		t.Error("loaded phase has zero utilization")
	}
	// The paper's anchor: peak ≈ idle+HLF x 1.107, max spike <= 3.64 W.
	if ratio := peak.AvgWatts / hlfIdle.AvgWatts; ratio < 1.08 || ratio > 1.16 {
		t.Errorf("peak/idle ratio = %.3f, want ~1.107", ratio)
	}
	if peak.MaxWatts > 3.64+1e-9 {
		t.Errorf("peak max = %.2f W, want <= 3.64", peak.MaxWatts)
	}
	out := res.Format()
	if !strings.Contains(out, "idle+HLF") {
		t.Errorf("format missing phases:\n%s", out)
	}
}
