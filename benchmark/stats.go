package main

import (
	"math"
	"sort"
	"syscall"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. It sorts a copy; xs is left untouched. An empty
// sample yields NaN so a missing measurement can never pass for a number.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the estimator every reported value goes through: one value per
// round, the middle round reported.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// spread summarises repeated runs of one metric for the calibration mode.
type spread struct {
	N      int
	Median float64
	Q1, Q3 float64
	// IQRShare is (Q3-Q1)/median, the statistic the acceptance rule uses.
	IQRShare float64
	// MaxDev is the largest |x-median|/median over the runs.
	MaxDev float64
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4), the default
// "exclusive" method, so the spread printed here is the one the acceptance
// rule computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(xs []float64) spread {
	sp := spread{N: len(xs), Median: median(xs)}
	sp.Q1, _, sp.Q3 = quartiles(xs)
	if sp.Median != 0 {
		sp.IQRShare = (sp.Q3 - sp.Q1) / math.Abs(sp.Median)
		for _, x := range xs {
			if d := math.Abs(x-sp.Median) / math.Abs(sp.Median); d > sp.MaxDev {
				sp.MaxDev = d
			}
		}
	}
	return sp
}

// cpuTimes is the process's accumulated CPU and peak resident set.
type cpuTimes struct {
	UserMs, SysMs float64
	MaxRSSKiB     int64
}

func (c cpuTimes) totalMs() float64 { return c.UserMs + c.SysMs }

func tvMs(tv syscall.Timeval) float64 {
	return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3
}

// readCPU snapshots getrusage(RUSAGE_SELF).
func readCPU() (cpuTimes, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}, err
	}
	return cpuTimes{UserMs: tvMs(ru.Utime), SysMs: tvMs(ru.Stime), MaxRSSKiB: ru.Maxrss}, nil
}
