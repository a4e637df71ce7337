package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"single", []float64{7}, 0.10, 7},
		{"min", []float64{3, 1, 2}, 0, 1},
		{"max", []float64{3, 1, 2}, 1, 3},
		{"median odd", []float64{9, 1, 5}, 0.5, 5},
		{"median even", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"p10 of 1..11", []float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.10, 2},
		{"p10 interpolates", []float64{10, 20}, 0.10, 11},
		{"p25 of nine rounds", []float64{9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.25, 3},
		{"p99 of 1..101", seq(1, 101), 0.99, 100},
	}
	for _, tc := range tests {
		in := append([]float64(nil), tc.xs...)
		if got := percentile(tc.xs, tc.q); !near(got, tc.want) {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", tc.name, tc.xs, tc.q, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.xs[i] {
				t.Errorf("%s: input reordered", tc.name)
				break
			}
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func seq(lo, hi int) []float64 {
	var xs []float64
	for i := lo; i <= hi; i++ {
		xs = append(xs, float64(i))
	}
	return xs
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	tests := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(1, 10), 2.75, 5.5, 8.25},
		{seq(1, 6), 1.75, 3.5, 5.25},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{2.9, 2.7, 2.8, 3.1, 2.75, 2.85, 2.95, 2.65, 3.0, 2.78}, 2.7375, 2.825, 2.9625},
	}
	for _, tc := range tests {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSummarize(t *testing.T) {
	sp := summarize(seq(1, 10))
	if sp.N != 10 || !near(sp.Median, 5.5) || !near(sp.IQRShare, 1) || !near(sp.MaxDev, 4.5/5.5) {
		t.Errorf("summarize(1..10) = %+v", sp)
	}
}

// One value per round goes in, the median round comes out.
func TestRoundEstimators(t *testing.T) {
	var rounds []roundResult
	for r := 1; r <= 9; r++ {
		lat := make([]float64, 11)
		for i := range lat {
			lat[i] = float64(r*100 + i) // p10 = r*100+1
		}
		rounds = append(rounds, roundResult{
			Ops:        10,
			LatMs:      lat,
			CPU:        cpuTimes{UserMs: float64(r) * 10, SysMs: float64(r) * 10},
			AllocBytes: uint64(r) * 10 * 1024,
			LiveBytes:  int64(r) * 10 * 2048,
		})
	}
	got := endToEnd(rounds)
	want := map[string]float64{"op_p10_ms": 501, "cpu_ms_per_op": 10, "alloc_kib_per_op": 5, "live_kib_per_op": 10}
	for name, w := range want {
		if !near(got[name], w) {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

func TestReadCPUAdvances(t *testing.T) {
	a, err := readCPU()
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for i := 0; i < 20_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	b, err := readCPU()
	if err != nil {
		t.Fatal(err)
	}
	if b.totalMs() <= a.totalMs() || x < 0 {
		t.Errorf("CPU time did not advance: %v -> %v", a, b)
	}
	if b.MaxRSSKiB <= 0 {
		t.Errorf("peak RSS %d", b.MaxRSSKiB)
	}
	if got := tvMs(syscallTimeval(2, 500)); !near(got, 2000.5) {
		t.Errorf("tvMs = %v, want 2000.5", got)
	}
}

func TestOverloaded(t *testing.T) {
	tests := []struct {
		line  string
		cores int
		want  bool
	}{
		{"2.51 1.00 0.50 3/90 123", 2, true},
		{"1.99 3.00 3.00 3/90 123", 2, false},
		{"unavailable", 2, false},
		{"", 2, false},
	}
	for _, tc := range tests {
		if got := overloaded(tc.line, tc.cores); got != tc.want {
			t.Errorf("overloaded(%q, %d) = %v", tc.line, tc.cores, got)
		}
	}
}
