package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
}

func TestRegistryReturnsSameCounter(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Error("Counter returned distinct instances for one name")
	}
	a.Inc()
	if r.Snapshot()["x"] != 1 {
		t.Errorf("snapshot = %v", r.Snapshot())
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*each {
		t.Errorf("shared = %d, want %d", got, workers*each)
	}
}

func TestWritePrometheusSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zebra").Inc()
	r.Counter("alpha").Add(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb, "", nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "\nalpha 2\n") || !strings.Contains(out, "\nzebra 1\n") {
		t.Errorf("exposition = %q", out)
	}
	if strings.Index(out, "alpha") > strings.Index(out, "zebra") {
		t.Error("exposition not sorted")
	}
}

func TestHistogramSummary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(CommitStagePreval)
	if h != r.Histogram(CommitStagePreval) {
		t.Error("Histogram returned distinct instances for one name")
	}
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	h.Observe(-time.Millisecond) // ignored
	s := h.Summary()
	if s.Count != 2 || s.Sum != 6*time.Millisecond ||
		s.Min != 2*time.Millisecond || s.Max != 4*time.Millisecond ||
		s.Mean != 3*time.Millisecond {
		t.Errorf("summary = %+v", s)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb, "", nil); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, CommitStagePreval+"_count 2") {
		t.Errorf("exposition lacks histogram lines: %q", out)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if s := h.Summary(); s.Count != workers*each {
		t.Errorf("count = %d, want %d", s.Count, workers*each)
	}
}

// Property: a counter's value equals the sum of positive deltas applied.
func TestQuickCounterSum(t *testing.T) {
	f := func(deltas []int16) bool {
		var c Counter
		var want int64
		for _, d := range deltas {
			c.Add(int64(d))
			if d > 0 {
				want += int64(d)
			}
		}
		return c.Value() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A GaugeFunc is sampled at every snapshot, next to the set gauges.
func TestGaugeFuncSampledPerSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Gauge(EndorseInflight).Set(3)
	level := int64(7)
	r.GaugeFunc(IdentityCacheEntries, func() int64 { return level })
	snap := r.GaugeSnapshot()
	if snap[EndorseInflight] != 3 || snap[IdentityCacheEntries] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
	level = 9
	if got := r.GaugeSnapshot()[IdentityCacheEntries]; got != 9 {
		t.Fatalf("second snapshot = %d, want the live level 9", got)
	}
}
