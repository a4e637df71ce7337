package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Quantiles must land within the stated relative error bound of the true
// (nearest-rank) quantile, across magnitudes spanning many bucket groups.
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform from ~100ns to ~10s so every bucket group gets hit.
		exp := rng.Float64()*8 + 2
		v := time.Duration(math.Pow(10, exp))
		h.Observe(v)
		samples = append(samples, v)
	}
	sortDurations(samples)
	s := h.Summary()
	for _, tc := range []struct {
		q    float64
		got  time.Duration
		name string
	}{
		{0.50, s.P50, "p50"},
		{0.90, s.P90, "p90"},
		{0.99, s.P99, "p99"},
		{0.999, s.P999, "p999"},
	} {
		rank := int(tc.q * float64(len(samples)))
		if rank < 1 {
			rank = 1
		}
		want := samples[rank-1]
		lo := float64(want) * (1 - QuantileRelativeError)
		hi := float64(want) * (1 + QuantileRelativeError)
		if g := float64(tc.got); g < lo || g > hi {
			t.Errorf("%s = %v, true %v, outside ±%.3f relative error",
				tc.name, tc.got, want, QuantileRelativeError)
		}
	}
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// Every observed value must fall in a bucket whose reported upper bound
// does not underestimate it and overestimates by at most the error bound.
func TestBucketIndexRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1000,
		1 << 20, 1<<20 + 12345, 1 << 40, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		i := bucketIndex(v)
		if i < 0 || i >= nBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		ub := uint64(bucketMax(i))
		if ub < v {
			t.Errorf("bucketMax(%d) = %d < value %d", i, ub, v)
		}
		if v >= nSub && float64(ub-v) > float64(v)*QuantileRelativeError {
			t.Errorf("bucket width at %d: upper bound %d exceeds error bound", v, ub)
		}
	}
}

// Hammer the atomic-bucket histogram with concurrent Observe and Summary;
// run with -race to catch unsynchronized access. Exact stats must survive.
func TestHistogramRaceHammer(t *testing.T) {
	var h Histogram
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Summary()
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(w*each+i) * time.Microsecond)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	s := h.Summary()
	if s.Count != workers*each {
		t.Errorf("count = %d, want %d", s.Count, workers*each)
	}
	if s.Min != 0 || s.Max != time.Duration(workers*each-1)*time.Microsecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
}

// Golden-shape test for the Prometheus text exposition: sanitized names,
// HELP/TYPE lines, cumulative ascending histogram buckets, +Inf terminal.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("tx_validated").Add(7)
	r.Gauge("endorse_inflight").Set(2)
	h := r.Histogram("commit.stage-preval") // dots/dashes must sanitize
	h.Observe(1 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(40 * time.Millisecond)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb, "hyperprov_", nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP hyperprov_tx_validated",
		"# TYPE hyperprov_tx_validated counter",
		"hyperprov_tx_validated 7",
		"# TYPE hyperprov_endorse_inflight gauge",
		"hyperprov_endorse_inflight 2",
		"# TYPE hyperprov_commit_stage_preval histogram",
		"hyperprov_commit_stage_preval_count 4",
		`hyperprov_commit_stage_preval_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "commit.stage-preval_bucket") {
		t.Error("metric name not sanitized")
	}

	// Buckets must be cumulative and in ascending le order.
	var lastLE float64 = -1
	var lastCum int64 = -1
	sawInf := false
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "hyperprov_commit_stage_preval_bucket{le=") {
			continue
		}
		rest := strings.TrimPrefix(line, `hyperprov_commit_stage_preval_bucket{le="`)
		end := strings.Index(rest, `"`)
		leStr, cntStr := rest[:end], strings.TrimSpace(rest[end+2:])
		cum, err := strconv.ParseInt(cntStr, 10, 64)
		if err != nil {
			t.Fatalf("bad bucket count in %q: %v", line, err)
		}
		if cum < lastCum {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, lastCum)
		}
		lastCum = cum
		if leStr == "+Inf" {
			sawInf = true
			continue
		}
		if sawInf {
			t.Fatalf("+Inf bucket is not last: %q", line)
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			t.Fatalf("bad le in %q: %v", line, err)
		}
		if le <= lastLE {
			t.Fatalf("le not ascending: %v after %v", le, lastLE)
		}
		lastLE = le
	}
	if !sawInf {
		t.Error("no +Inf bucket")
	}
	if lastCum != 4 {
		t.Errorf("final cumulative count = %d, want 4", lastCum)
	}
}

// Labeled exposition: the constant label set must land on every sample —
// bare samples in {} form, histogram buckets merged before le — without
// changing metric names, so per-channel registries share one scrape.
func TestWritePrometheusLabeled(t *testing.T) {
	r := NewRegistry()
	r.Counter("tx_validated").Add(3)
	r.Gauge("endorse_inflight").Set(1)
	h := r.Histogram("commit_total")
	h.Observe(2 * time.Millisecond)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb, "hyperprov_", map[string]string{"channel": "alpha"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`hyperprov_tx_validated{channel="alpha"} 3`,
		`hyperprov_endorse_inflight{channel="alpha"} 1`,
		`hyperprov_commit_total_bucket{channel="alpha",le="+Inf"} 1`,
		`hyperprov_commit_total_count{channel="alpha"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("labeled exposition missing %q:\n%s", want, out)
		}
	}
}
