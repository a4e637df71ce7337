package bench

import (
	"sync"
	"sync/atomic"
	"time"
)

// Op is one benchmark operation; it returns an error on failure.
type Op func(worker, iteration int) error

// RunResult reports one closed-loop run.
type RunResult struct {
	// Ops is the number of successful operations.
	Ops int64
	// Errs is the number of failed operations.
	Errs int64
	// WallDuration is the measured wall-clock run length.
	WallDuration time.Duration
	// Latency is the distribution of successful-op wall latencies.
	Latency *Histogram
}

// Throughput returns successful operations per second of wall time.
func (r RunResult) Throughput() float64 {
	if r.WallDuration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.WallDuration.Seconds()
}

// ModeledThroughput converts wall throughput into modeled ops/sec given the
// clock compression factor (wall = modeled x scale, so modeled throughput =
// wall throughput x scale).
func (r RunResult) ModeledThroughput(scale float64) float64 {
	if scale <= 0 {
		scale = 1
	}
	return r.Throughput() * scale
}

// RunClosedLoop drives op from `workers` concurrent workers for the given
// wall duration (each worker keeps exactly one operation outstanding, as
// the paper's benchmark program does with its batch of async requests).
func RunClosedLoop(workers int, wallFor time.Duration, op Op) RunResult {
	res := RunResult{Latency: NewHistogram()}
	var ops, errs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				opStart := time.Now()
				if err := op(w, i); err != nil {
					errs.Add(1)
					continue
				}
				res.Latency.Record(time.Since(opStart))
				ops.Add(1)
			}
		}(w)
	}
	time.Sleep(wallFor)
	close(stop)
	wg.Wait()
	res.WallDuration = time.Since(start)
	res.Ops = ops.Load()
	res.Errs = errs.Load()
	return res
}
