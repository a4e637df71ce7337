// Package bench is the stand-in for the paper's custom NodeJS benchmark
// program. It provides a latency recorder, a closed-loop load driver, and
// one table (Experiments) holding an experiment per figure of the paper's
// evaluation plus the ablations listed in README "Paper figures &
// ablations", each emitting the rows the figure plots. Real-clock
// performance is judged by the repository benchmark (benchmark/), not here.
package bench

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram records latency samples and reports distribution statistics.
// It keeps all samples (experiment runs are bounded), which makes exact
// percentiles trivial.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{samples: make([]time.Duration, 0, 1024)}
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, d)
	h.mu.Unlock()
}

// Merge folds other's samples into h (used to summarize a distribution
// across several channels' recorders).
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	samples := make([]time.Duration, len(other.samples))
	copy(samples, other.samples)
	other.mu.Unlock()
	h.mu.Lock()
	h.samples = append(h.samples, samples...)
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Summary is the latency distribution of one run.
type Summary struct {
	Count  int
	Mean   time.Duration
	Stddev time.Duration
	Min    time.Duration
	P50    time.Duration
	P95    time.Duration
	P99    time.Duration
	P999   time.Duration
	Max    time.Duration
}

// Summarize computes distribution statistics. A zero Summary is returned
// for an empty histogram.
func (h *Histogram) Summarize() Summary {
	h.mu.Lock()
	samples := make([]time.Duration, len(h.samples))
	copy(samples, h.samples)
	h.mu.Unlock()
	if len(samples) == 0 {
		return Summary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum, sumSq float64
	for _, s := range samples {
		f := float64(s)
		sum += f
		sumSq += f * f
	}
	n := float64(len(samples))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		Count:  len(samples),
		Mean:   time.Duration(mean),
		Stddev: time.Duration(math.Sqrt(variance)),
		Min:    samples[0],
		P50:    percentile(samples, 0.50),
		P95:    percentile(samples, 0.95),
		P99:    percentile(samples, 0.99),
		P999:   percentile(samples, 0.999),
		Max:    samples[len(samples)-1],
	}
}

// percentile returns the p-th percentile of sorted samples (nearest rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Scaled divides every duration in the summary by scale, converting
// wall-clock measurements on a compressed clock back into modeled time.
// scale <= 0 or scale == 1 returns the summary unchanged.
func (s Summary) Scaled(scale float64) Summary {
	if scale <= 0 || scale == 1 {
		return s
	}
	f := func(d time.Duration) time.Duration { return time.Duration(float64(d) / scale) }
	return Summary{
		Count: s.Count, Mean: f(s.Mean), Stddev: f(s.Stddev), Min: f(s.Min),
		P50: f(s.P50), P95: f(s.P95), P99: f(s.P99), P999: f(s.P999), Max: f(s.Max),
	}
}

// FormatSize renders a byte count the way the paper labels its x-axis.
func FormatSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
