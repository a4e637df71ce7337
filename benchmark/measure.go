package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/identity"
)

// numClients is the closed loop's width: every workload is driven by exactly
// two client goroutines, fixed rather than derived from the core count so
// numbers compare across machines.
const numClients = 2

// workload is one benchmark scenario after set-up. The measured phase calls
// BeginRound, then Op from numClients goroutines, then Quiesce and EndRound.
type workload interface {
	// BeginRound prepares round r. Untimed: it runs before the round's
	// start-of-round snapshots.
	BeginRound(r int) error
	// Op runs operation i of round r as client c and checks its result.
	// A non-nil error is a failed operation: counted, never retried, and it
	// contributes no latency sample.
	Op(c, r, i int, sl *spanLog) error
	// Quiesce runs right after the last operation returns: it waits for
	// work the operations caused but did not wait for (commit on the peers
	// the gateway does not listen to), so the round's CPU and allocation
	// deltas cover all of it.
	Quiesce(r int) error
	// EndRound runs after the live-heap snapshot: it asserts the round's
	// outcome and tears down round-local state.
	EndRound(r int) error
	// Finish runs the end-of-run correctness checks and returns the
	// ledger-derived counters.
	Finish() (ledgerFacts, error)
	// Net is the network whose ledger and peers the layer probes run
	// against after the traced rounds.
	Net() *chainNet
	// CacheStats is the cumulative hit/miss count of the verification
	// caches the measured operations went through.
	CacheStats() identity.VerifyCacheStats
	// Close stops everything the workload started and waits for it.
	Close()
}

// ledgerFacts are exact counts read from the committed chain at the end of a
// run; they double as correctness evidence.
type ledgerFacts struct {
	TxsPerBlock       float64
	EndorsementsPerTx float64
	InvalidTxRatio    float64
	BytesPerTx        float64
}

// roundResult is one round's raw measurements.
type roundResult struct {
	Ops, Failed int
	LatMs       []float64
	WallS       float64
	CPU         cpuTimes // delta over the round
	AllocBytes  uint64
	Mallocs     uint64
	LiveBytes   int64
	GCCPUs      float64 // GC CPU seconds over the round
	TotalCPUs   float64 // runtime's view of total available CPU seconds
	FirstErr    error
}

func (r roundResult) perOp(x float64) float64 { return x / float64(r.Ops) }

// heapSnapshot forces two collections (the second reclaims what finalizers
// and the first cycle's floating garbage left) and reads the heap counters.
func heapSnapshot() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGCCPU() (gc, total float64) {
	metrics.Read(gcSamples)
	return gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()
}

// runRound executes round r of ops operations (r = -1: the warm-up). logs is
// nil for untraced rounds, else one span log per client.
func runRound(w workload, r, ops int, logs []*spanLog) (roundResult, error) {
	res := roundResult{Ops: ops}
	if err := w.BeginRound(r); err != nil {
		return res, fmt.Errorf("round %d: begin: %w", r, err)
	}
	before := heapSnapshot()
	gc0, tot0 := readGCCPU()
	cpu0, err := readCPU()
	if err != nil {
		return res, err
	}

	lat := make([][]float64, numClients)
	failed := make([]int, numClients)
	firstErr := make([]error, numClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var sl *spanLog
			if logs != nil {
				sl = logs[c]
			}
			lat[c] = make([]float64, 0, res.Ops/numClients+1)
			// Static partition: client c runs operations c, c+2, ... so
			// which client runs which inputs never depends on timing.
			for i := c; i < res.Ops; i += numClients {
				t0 := time.Now()
				err := w.Op(c, r, i, sl)
				d := time.Since(t0)
				if err != nil {
					failed[c]++
					if firstErr[c] == nil {
						firstErr[c] = fmt.Errorf("round %d op %d: %w", r, i, err)
					}
					continue
				}
				lat[c] = append(lat[c], float64(d.Nanoseconds())/1e6)
			}
		}(c)
	}
	wg.Wait()
	res.WallS = time.Since(start).Seconds()
	if err := w.Quiesce(r); err != nil {
		return res, fmt.Errorf("round %d: quiesce: %w", r, err)
	}
	cpu1, err := readCPU()
	if err != nil {
		return res, err
	}
	var mid runtime.MemStats
	runtime.ReadMemStats(&mid)
	after := heapSnapshot()
	// The runtime refreshes its CPU classes at collection boundaries, so
	// both ends of the delta are read right after a forced collection.
	gc1, tot1 := readGCCPU()

	for c := 0; c < numClients; c++ {
		res.LatMs = append(res.LatMs, lat[c]...)
		res.Failed += failed[c]
		if res.FirstErr == nil {
			res.FirstErr = firstErr[c]
		}
	}
	res.CPU = cpuTimes{UserMs: cpu1.UserMs - cpu0.UserMs, SysMs: cpu1.SysMs - cpu0.SysMs, MaxRSSKiB: cpu1.MaxRSSKiB}
	res.AllocBytes = mid.TotalAlloc - before.TotalAlloc
	res.Mallocs = mid.Mallocs - before.Mallocs
	res.LiveBytes = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	res.GCCPUs, res.TotalCPUs = gc1-gc0, tot1-tot0

	if err := w.EndRound(r); err != nil {
		return res, fmt.Errorf("round %d: end: %w", r, err)
	}
	return res, nil
}

// endToEnd reduces rounds to the gated metrics: one value per round, the
// median round reported.
func endToEnd(rounds []roundResult) map[string]float64 {
	var p10, cpu, alloc, live []float64
	for _, r := range rounds {
		p10 = append(p10, percentile(r.LatMs, 0.10))
		cpu = append(cpu, r.perOp(r.CPU.totalMs()))
		alloc = append(alloc, r.perOp(float64(r.AllocBytes))/1024)
		live = append(live, r.perOp(float64(r.LiveBytes))/1024)
	}
	return map[string]float64{
		"op_p10_ms":        median(p10),
		"cpu_ms_per_op":    median(cpu),
		"alloc_kib_per_op": median(alloc),
		"live_kib_per_op":  median(live),
	}
}

// diagnostics are the reported-only per-workload numbers: they spread too
// widely between runs of the same code to gate anything.
func diagnostics(rounds []roundResult) map[string]float64 {
	var p50, p99, rate, mallocs, gcShare, sysShare []float64
	peak := 0.0
	for _, r := range rounds {
		p50 = append(p50, percentile(r.LatMs, 0.50))
		p99 = append(p99, percentile(r.LatMs, 0.99))
		rate = append(rate, float64(len(r.LatMs))/r.WallS)
		mallocs = append(mallocs, r.perOp(float64(r.Mallocs)))
		if r.TotalCPUs > 0 {
			gcShare = append(gcShare, r.GCCPUs/r.TotalCPUs)
		}
		if t := r.CPU.totalMs(); t > 0 {
			sysShare = append(sysShare, r.CPU.SysMs/t)
		}
		if mib := float64(r.CPU.MaxRSSKiB) / 1024; mib > peak {
			peak = mib
		}
	}
	return map[string]float64{
		"core.op_p50_ms":      median(p50),
		"core.op_p99_ms":      median(p99),
		"core.ops_per_s":      median(rate),
		"proc.mallocs_per_op": median(mallocs),
		"proc.gc_cpu_share":   median(gcShare),
		"proc.sys_cpu_share":  median(sysShare),
		"proc.peak_rss_mib":   peak,
	}
}
