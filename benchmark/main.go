// Command benchmark is the repository's wall-clock benchmark: it drives the
// real execute–order–validate path in one process, on the real clock,
// through the public API of the packages under internal/, and prints the
// metrics BENCHMARK.json names. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the -seconds the driver passes
// and the default here.
const runSeconds = 15

// Scale of a run: the measured phase is a fixed number of rounds of a fixed
// number of operations, never a duration, so two runs with the same -seconds
// do identical work. The smoke mode shrinks every count.
type scale struct {
	// tracedPairs is the number of (untraced, traced) round pairs of a
	// -trace 1 run; the pairing is what trace.overhead_pct compares.
	tracedPairs int
	probeCalls  int // calls per layer probe
	// refUnits is how many reference-kernel units each client goroutine runs
	// per sample: about a fifth of a second of CPU time at full scale.
	refUnits int
}

var (
	fullScale  = scale{tracedPairs: 2, probeCalls: 1000, refUnits: 48}
	smokeScale = scale{tracedPairs: 1, probeCalls: 20, refUnits: 1}
)

// sizing is one workload's share of the work. -seconds only scales the
// operations per round (rate × seconds ÷ rounds), so that on the machine the
// rates were taken on the measured phase lasts about that long.
type sizing struct {
	rounds int     // measured rounds of an untraced run; the median is reported
	rate   float64 // nominal operations per second, both clients together
	ops    int     // operations per round; derived from rate unless set
	warmup int     // untimed warm-up operations after each set-up
	// setups is the number of set-ups per untraced run; setup_s is the
	// fastest. The half-second set-ups are repeated more often: a spell of
	// steal outlasts three of them.
	setups int
	// dagChains is the number of chains lineage_mixed's set-up commits.
	dagChains int
}

// workloadSpec ties a workload name to its constructor and sizes.
type workloadSpec struct {
	name  string
	why   string
	build func(seed int64, sz sizing) (workload, error)
	full  sizing
	check sizing
}

var workloads = []workloadSpec{
	{
		name:  "post_e2e",
		why:   "metadata-only Post on 4 peers with 1-tx blocks: the per-transaction fixed cost (sign, endorse, order, commit); off-chain and transport idle",
		build: newPostWorkload,
		full:  sizing{rounds: 9, rate: 420, warmup: 200, setups: 9},
		check: sizing{rounds: 2, ops: 24, warmup: 8},
	},
	{
		name:  "store_payload",
		why:   "StoreData then GetData of 256 KiB over a loopback off-chain server: checksum and off-chain put/get are about 70% of the op, and a put gain that costs get shows",
		build: newStoreWorkload,
		full:  sizing{rounds: 9, rate: 150, warmup: 60, setups: 9},
		check: sizing{rounds: 2, ops: 8, warmup: 4},
	},
	{
		name:  "lineage_mixed",
		why:   "one Post beside 20 point/lineage reads and a rich query on a seeded DAG: chaincode, state, history and query layers dominate, so a read-side change that taxes writes shows here only",
		build: newLineageWorkload,
		full:  sizing{rounds: 9, rate: 150, warmup: 100, setups: 2, dagChains: dagChains},
		check: sizing{rounds: 2, ops: 8, warmup: 4, dagChains: 2},
	},
	{
		name:  "catchup",
		why:   "cold volatile joiners replay 10-tx blocks over the transport, 4 blocks per op: committer, identity verify, block codec and framing only; gateway, orderer and off-chain idle",
		build: newCatchupWorkload,
		full:  sizing{rounds: 11, rate: 90, warmup: 20, setups: 3},
		check: sizing{rounds: 2, ops: 4, warmup: 2},
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output; the field set is the
// driver's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// warmUp runs n untimed operations as round -1. A failed warm-up operation
// aborts the run: nothing measured after it can be trusted.
func warmUp(w workload, n int) error {
	rr, err := runRound(w, -1, n, nil)
	if err == nil {
		err = rr.FirstErr
	}
	return err
}

// setUp builds the workload setups times, keeps the last instance and returns
// every set-up's wall time. setup_s is the wall time of the fastest set-up — assembly, chaincode
// deploy, pre-population and warm-up. Set-up is a wall-clock total, the
// statistic steal hits hardest (its median moved 60% between the box's quiet
// and busy spells where op_p10_ms moved 18%), and interference only ever
// adds time, so the fastest of the repetitions is the one that repeats.
// Each set-up starts from a collected heap: the previous instance's garbage
// is not its cost.
func setUp(spec workloadSpec, seed int64, sz sizing, setups int) (workload, []float64, error) {
	var times []float64
	var w workload
	for k := 0; k < setups; k++ {
		if w != nil {
			w.Close()
			w = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = spec.build(seed, sz); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if err := warmUp(w, sz.warmup); err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		fmt.Printf("  set-up %d: %.4f s\n", k, times[k])
	}
	return w, times, nil
}

// runOnce performs one complete run of one workload and returns the named
// metrics with their units, plus attempted/failed counts.
func runOnce(spec workloadSpec, seed int64, seconds float64, traced, check bool, outDir string) (*result, error) {
	sz, sc := spec.full, fullScale
	if check {
		sz, sc = spec.check, smokeScale
	}
	if sz.ops == 0 {
		// Never below 150 latency samples per round, and an even split
		// between the clients.
		sz.ops = max(150, int(sz.rate*seconds/float64(sz.rounds))) / numClients * numClients
	}
	setups := sz.setups
	if traced || check {
		setups = 1 // a traced run does not report setup_s
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	stamp := newEnvStamp(seed, outDir)
	// refs are the reference kernel's timings: one before the first set-up,
	// two before every round and one at the end.
	refs := []float64{sampleRef(sc.refUnits)}
	w, setupTimes, err := setUp(spec, seed, sz, setups)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	// A set-up is a wall-clock total, so it contains the time the hypervisor
	// gave to other guests meanwhile; the guest's own share of it is what
	// the program took. The other two times need no such factor: a low
	// quantile avoids stolen moments and CPU time excludes them.
	setupStolen := stamp.stolenSoFar()
	setupS := slices.Min(setupTimes)

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	rep := &report{Workload: spec.name, Traced: traced, OpsPerRound: sz.ops, Samples: map[string]int{}, SetupTimes: setupTimes, Result: res}
	// plan[r] says whether round r is traced. A traced run alternates, so
	// trace.overhead_pct compares like with like.
	plan := make([]bool, sz.rounds)
	var logs []*spanLog
	if traced {
		plan = make([]bool, 2*sc.tracedPairs)
		epoch := time.Now()
		for c := 0; c < numClients; c++ {
			logs = append(logs, newSpanLog(epoch, c))
		}
		for r := 1; r < len(plan); r += 2 {
			plan[r] = true
		}
	}
	var rounds, tracedRounds []roundResult
	cache0 := w.CacheStats()
	for r, withSpans := range plan {
		var l []*spanLog
		if withSpans {
			l = logs
		}
		refs = append(refs, sampleRef(sc.refUnits), sampleRef(sc.refUnits))
		rr, err := runRound(w, r, sz.ops, l)
		if err != nil {
			return nil, err
		}
		rv := roundValues{Traced: withSpans, P10Ms: percentile(rr.LatMs, 0.10), CPUMs: rr.perOp(rr.CPU.totalMs()),
			AllocKiB: rr.perOp(float64(rr.AllocBytes)) / 1024, LiveKiB: rr.perOp(float64(rr.LiveBytes)) / 1024}
		rep.RoundValues = append(rep.RoundValues, rv)
		fmt.Printf("  round %2d: p10=%.4f ms p50=%.4f ms cpu=%.4f ms/op alloc=%.2f KiB/op live=%.2f KiB/op wall=%.3f s traced=%v\n",
			r, rv.P10Ms, percentile(rr.LatMs, 0.50), rv.CPUMs, rv.AllocKiB, rv.LiveKiB, rr.WallS, withSpans)
		res.Attempted += rr.Ops
		res.Failed += rr.Failed
		rep.LatencySamples += len(rr.LatMs)
		if rr.FirstErr != nil {
			fmt.Fprintf(os.Stderr, "FAILED OPERATION: %v\n", rr.FirstErr)
		}
		if withSpans {
			tracedRounds = append(tracedRounds, rr)
		} else {
			rounds = append(rounds, rr)
		}
	}
	cache1 := w.CacheStats()
	rep.Rounds = len(plan)
	rep.RefSamples = append(refs, sampleRef(sc.refUnits))
	rep.Speed = machineSpeed(rep.RefSamples)
	rep.SetupStolen = setupStolen

	// Times are reported at the reference machine's speed; the counts
	// need no such correction.
	values := endToEnd(rounds)
	values["setup_s"] = setupS
	rep.Raw = map[string]float64{"setup_s": setupS, "op_p10_ms": values["op_p10_ms"], "cpu_ms_per_op": values["cpu_ms_per_op"]}
	for name := range rep.Raw {
		values[name] /= rep.Speed
	}
	values["setup_s"] *= 1 - setupStolen
	if traced {
		values = diagnostics(append(rounds, tracedRounds...))
		values["ref.speed"] = rep.Speed
		u, t := endToEnd(rounds)["op_p10_ms"], endToEnd(tracedRounds)["op_p10_ms"]
		values["trace.overhead_pct"] = 100 * (t - u) / u
		if lookups := float64(cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses); lookups > 0 {
			values["identity.verifycache_hit_ratio"] = float64(cache1.Hits-cache0.Hits) / lookups
		}
	}

	facts, err := w.Finish()
	if err != nil {
		return nil, fmt.Errorf("CORRECTNESS CHECK FAILED: %w", err)
	}
	res.Correct = res.Failed == 0

	if traced {
		values["fabric.endorsements_per_tx"] = facts.EndorsementsPerTx
		values["orderer.txs_per_block"] = facts.TxsPerBlock
		values["committer.invalid_tx_ratio"] = facts.InvalidTxRatio
		values["blockstore.bytes_per_tx"] = facts.BytesPerTx
		probes, err := runProbes(w.Net(), seed, sc.probeCalls, outDir)
		if err != nil {
			return nil, err
		}
		for _, p := range probes {
			values[p.Name] = p.Value
			rep.Samples[p.Name] = p.Samples
		}
		rep.Spans = summarizeSpans(logs)
		if err := writeSpans(filepath.Join(outDir, "trace-"+spec.name+".json"), spec.name, rep.Spans, logs); err != nil {
			return nil, err
		}
	}
	for name, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no value", name)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	stamp.finish()
	rep.Env = stamp
	rep.print(os.Stdout)
	return res, rep.write(outDir)
}

// report is everything a run knows about itself: the driver's result plus
// the environment stamp, sample counts and span digest. It is printed for
// people before the result line and saved under the output directory.
type report struct {
	Workload       string    `json:"workload"`
	Traced         bool      `json:"traced"`
	Env            *envStamp `json:"env"`
	Rounds         int       `json:"rounds"`
	OpsPerRound    int       `json:"opsPerRound"`
	LatencySamples int       `json:"latencySamples"`
	// Samples is the call count behind each probe's p10 (or single value).
	Samples map[string]int `json:"probeSamples,omitempty"`
	Spans   []spanSummary  `json:"spans,omitempty"`
	// Speed is the machine's measured speed relative to the reference
	// machine; Raw holds the time metrics before division by it, and
	// SetupTimes, RoundValues and RefSamples every value behind them, as
	// measured, in the order taken.
	Speed       float64            `json:"machineSpeed"`
	Raw         map[string]float64 `json:"rawTimes"`
	SetupTimes  []float64          `json:"setupTimesS"`
	SetupStolen float64            `json:"setupStolenShare"`
	RoundValues []roundValues      `json:"roundValues"`
	RefSamples  []float64          `json:"refSamplesCPUMs"`
	Result      *result            `json:"result"`
}

// roundValues is one round's value of each per-round end-to-end metric.
type roundValues struct {
	Traced   bool    `json:"traced"`
	P10Ms    float64 `json:"opP10Ms"`
	CPUMs    float64 `json:"cpuMsPerOp"`
	AllocKiB float64 `json:"allocKiBPerOp"`
	LiveKiB  float64 `json:"liveKiBPerOp"`
}

func (rep *report) print(w io.Writer) {
	res := rep.Result
	fmt.Fprintf(w, "workload %s: %d rounds x %d ops, %d attempted, %d failed (%.4f%%), %d latency samples\n",
		rep.Workload, rep.Rounds, rep.OpsPerRound, res.Attempted, res.Failed,
		100*float64(res.Failed)/float64(max(res.Attempted, 1)), rep.LatencySamples)
	rep.Env.print(w)
	fmt.Fprintf(w, "machine speed: CPU work took x%.4f the reference machine's time, %.4f of the set-ups' time was stolen; as measured: setup_s=%.4f op_p10_ms=%.4f cpu_ms_per_op=%.4f\n",
		rep.Speed, rep.SetupStolen, rep.Raw["setup_s"], rep.Raw["op_p10_ms"], rep.Raw["cpu_ms_per_op"])
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		samples := ""
		if k, ok := rep.Samples[n]; ok {
			samples = fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Fprintf(w, "  %-36s %16.4f %s%s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit, samples)
	}
	for _, s := range rep.Spans {
		fmt.Fprintf(w, "  span %-31s n=%-6d p10=%.4f ms p50=%.4f ms self_p50=%.4f ms\n", s.Name, s.Count, s.P10Ms, s.P50Ms, s.SelfP50Ms)
	}
}

func (rep *report) write(outDir string) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(reportPath(outDir, rep.Workload, rep.Traced), raw, 0o644)
}

func reportPath(outDir, workload string, traced bool) string {
	mode := "e2e"
	if traced {
		mode = "layers"
	}
	return filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", workload, mode))
}

func main() {
	var (
		workloadName  = flag.String("workload", "", "workload to run (one of BENCHMARK.json's names)")
		seed          = flag.Int64("seed", 1, "workload seed: keys, payload bytes, DAG parents and read targets derive from it")
		seconds       = flag.Float64("seconds", runSeconds, "measure whole rounds until this many seconds have passed")
		trace         = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file, layer probes; 0 = end-to-end metrics")
		check         = flag.Bool("check", false, "smoke mode: tiny operation counts, every workload, every assertion")
		repeat        = flag.Int("repeat", 0, "calibration: run each workload N times and print each metric's spread")
		outDir        = flag.String("out", "out", "directory for span files and calibration output")
		printManifest = flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it and exit")
	)
	flag.Parse()
	if *printManifest {
		raw, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(raw))
		return
	}
	if err := mainErr(*workloadName, *seed, *seconds, *trace == 1, *check, *repeat, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// smoke runs every workload once untraced and once traced at tiny sizes and
// asserts what the unit tests rely on: all correctness checks pass, no
// operation fails, and each run reports exactly its catalogue's metrics.
func smoke(specs []workloadSpec, seed int64, outDir string) error {
	for _, spec := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runOnce(spec, seed, 1, traced, true, outDir)
			if err != nil {
				return fmt.Errorf("%s (trace=%v): %w", spec.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s (trace=%v): %d of %d operations failed", spec.name, traced, res.Failed, res.Attempted)
			}
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics
			}
			if err := checkMetricSet(res.Metrics, want); err != nil {
				return fmt.Errorf("%s (trace=%v): %w", spec.name, traced, err)
			}
		}
	}
	fmt.Println("check: ok")
	return nil
}

// checkMetricSet verifies a run reported exactly the catalogued metrics.
func checkMetricSet(got map[string]metricValue, want []metricDef) error {
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			return fmt.Errorf("metric %s missing", m.name)
		}
		if v.Unit != m.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", m.name, v.Unit, m.unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics reported, %d catalogued", len(got), len(want))
	}
	return nil
}

func mainErr(name string, seed int64, seconds float64, traced, check bool, repeat int, outDir string) error {
	specs := workloads
	if name != "" {
		spec, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		specs = []workloadSpec{spec}
	}
	switch {
	case repeat > 0:
		return calibrate(os.Stdout, specs, repeat, seed, seconds, traced, outDir)
	case check:
		return smoke(specs, seed, outDir)
	case name == "":
		return errors.New("no -workload given (or use -check / -repeat N)")
	}
	res, err := runOnce(specs[0], seed, seconds, traced, false, outDir)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed\n", res.Failed, res.Attempted)
	}
	return nil
}
