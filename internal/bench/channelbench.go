package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// This file holds the multi-channel tenancy experiment: N independent
// channel commit pipelines sharing ONE modeled host (default: the 4-core
// Xeon E5-1603, the same device.Executor core semaphore every other
// experiment charges). Two questions, matching the multi-tenant pitch:
//
//  1. Scaling — does aggregate committed tx/s grow with the channel count?
//     A single channel's pipeline is sized (Workers below the core count)
//     so its pre-validation pool and serial stages leave cores idle;
//     additional channels are additional non-contending pipelines that
//     fill that slack.
//  2. Isolation — does a flooding hot tenant wreck a paced quiet tenant's
//     tail latency? The quiet channel commits small blocks on a fixed
//     cadence, alone and then next to a saturating hot channel; the gap
//     between the two p99s is the interference bill.
//
// Rates are in modeled hardware time, like every experiment here.

// channelConfig parameterizes the multi-channel experiment.
type channelConfig struct {
	// ChannelCounts are the x-axis points; the first count (conventionally
	// 1) is the baseline the speedup column is relative to.
	ChannelCounts []int
	// BlockSize is transactions per block on every scaling-section channel.
	BlockSize int
	// Blocks is the stream length per channel.
	Blocks int
	// WritesPerTx is the number of state writes each transaction carries.
	WritesPerTx int
	// Workers is each channel's pre-validation pool. Keep it below the
	// profile's core count: per-channel slack is what multi-channel scaling
	// converts into aggregate throughput.
	Workers int
	// Profile models the host every channel shares.
	Profile device.Profile
	// Scale compresses modeled time (0.5 runs 2x faster than modeled).
	Scale float64
	// Seed fixes modeled jitter.
	Seed int64

	// QuietBlockSize/QuietBlocks shape the isolation section's quiet
	// tenant: QuietBlocks blocks of QuietBlockSize txs, one submitted every
	// QuietInterval of wall clock.
	QuietBlockSize int
	QuietBlocks    int
	QuietInterval  time.Duration
	// HotBlocks is the flooding tenant's stream length (BlockSize-sized
	// blocks, submitted as fast as the pipeline accepts them). Size it to
	// outlast the quiet tenant's paced run.
	HotBlocks int
}

// channelConfigFor returns the figure-quality configuration, or the
// reduced one.
func channelConfigFor(quick bool) channelConfig {
	cfg := channelConfig{
		ChannelCounts:  []int{1, 2, 4},
		BlockSize:      50,
		Blocks:         16,
		WritesPerTx:    2,
		Workers:        2,
		Profile:        device.XeonE51603,
		Scale:          0.5,
		Seed:           1,
		QuietBlockSize: 10,
		QuietBlocks:    30,
		QuietInterval:  50 * time.Millisecond,
		HotBlocks:      18,
	}
	if quick {
		cfg.ChannelCounts = []int{1, 4}
		cfg.BlockSize = 30
		cfg.Blocks = 6
		cfg.Scale = 0.2
		cfg.QuietBlockSize = 5
		cfg.QuietBlocks = 10
		cfg.QuietInterval = 25 * time.Millisecond
		cfg.HotBlocks = 8
	}
	return cfg
}

// ChannelBenchRow is one measured channel-count point.
type ChannelBenchRow struct {
	Channels int `json:"channels"`
	// AggregateTps is committed transactions per modeled second summed
	// across every channel of the host.
	AggregateTps float64 `json:"aggregateTxPerSec"`
	// PerChannelTps is AggregateTps / Channels.
	PerChannelTps float64 `json:"perChannelTxPerSec"`
	// Speedup is AggregateTps relative to the first configured count's.
	Speedup float64 `json:"speedup"`
	// P99Ms is the per-block submit-to-persist p99 across all channels, in
	// modeled milliseconds.
	P99Ms float64 `json:"p99MsPerBlock"`
}

// ChannelIsolation reports the hot-tenant interference measurement.
type ChannelIsolation struct {
	QuietBlockSize int `json:"quietBlockSize"`
	HotBlockSize   int `json:"hotBlockSize"`
	// QuietSoloP99Ms is the paced quiet tenant's per-block p99 with the
	// host to itself, modeled milliseconds.
	QuietSoloP99Ms float64 `json:"quietSoloP99Ms"`
	// QuietHotP99Ms is the same tenant's p99 while the hot tenant floods.
	QuietHotP99Ms float64 `json:"quietHotP99Ms"`
	// DegradationPct is the relative p99 rise the hot tenant inflicted.
	DegradationPct float64 `json:"degradationPct"`
	// HotTps is the flooding tenant's modeled throughput during the run.
	HotTps float64 `json:"hotTxPerSec"`
}

// ChannelBenchResult is the multi-channel tenancy comparison.
type ChannelBenchResult struct {
	Name        string            `json:"name"`
	Description string            `json:"description"`
	Rows        []ChannelBenchRow `json:"rows"`
	Isolation   *ChannelIsolation `json:"isolation,omitempty"`
}

// Format renders the comparison table.
func (r ChannelBenchResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n%s\n", r.Name, r.Description)
	fmt.Fprintf(&sb, "%-10s %16s %18s %10s %12s\n",
		"channels", "aggregate(tx/s)", "per-channel(tx/s)", "speedup", "p99(ms)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10d %16.0f %18.0f %9.2fx %12.1f\n",
			row.Channels, row.AggregateTps, row.PerChannelTps, row.Speedup, row.P99Ms)
	}
	if iso := r.Isolation; iso != nil {
		fmt.Fprintf(&sb, "-- hot-tenant isolation (quiet %d-tx blocks vs hot %d-tx flood) --\n",
			iso.QuietBlockSize, iso.HotBlockSize)
		fmt.Fprintf(&sb, "quiet p99 solo %.1fms, beside hot tenant %.1fms (%+.1f%%); hot tenant ran at %.0f tx/s\n",
			iso.QuietSoloP99Ms, iso.QuietHotP99Ms, iso.DegradationPct, iso.HotTps)
	}
	return sb.String()
}

// channelPipe is one channel's commit pipeline over fresh stores, charged
// against a shared host executor.
type channelPipe struct {
	eng       committer.Committer
	lat       *Histogram
	submitted []time.Time
}

func newChannelPipe(f *commitFixture, exec *device.Executor, streamLen, workers int) *channelPipe {
	p := &channelPipe{lat: NewHistogram(), submitted: make([]time.Time, streamLen)}
	blocks := blockstore.NewStore()
	p.eng = committer.New(committer.Config{
		State:    statedb.New(),
		History:  historydb.NewIndex(blocks),
		Blocks:   blocks,
		Verifier: f.verifier(exec),
		Workers:  workers,
		OnCommitted: func(b *blockstore.Block) {
			p.lat.Record(time.Since(p.submitted[b.Header.Number]))
		},
	})
	return p
}

// drain feeds the whole stream as fast as the pipeline accepts it and
// blocks until every block persisted.
func (p *channelPipe) drain(stream []*blockstore.Block) error {
	for _, b := range stream {
		p.submitted[b.Header.Number] = time.Now()
		if !p.eng.Submit(b) {
			return fmt.Errorf("bench: block %d rejected", b.Header.Number)
		}
	}
	p.eng.Sync()
	return nil
}

// runChannelBench runs the multi-channel scaling and isolation experiment.
func runChannelBench(quick bool) (Report, error) {
	cfg := channelConfigFor(quick)
	res := ChannelBenchResult{
		Name: "Multi-channel tenancy: per-channel pipelines on one modeled host",
		Description: fmt.Sprintf(
			"%d blocks x %d tx per channel, %d writes/tx, real ECDSA P-256 signatures; shared host: %s (%d cores); per-channel pipeline: %d workers; rates in modeled tx/s",
			cfg.Blocks, cfg.BlockSize, cfg.WritesPerTx, cfg.Profile.Name, cfg.Profile.Cores,
			cfg.Workers),
	}
	f, err := newCommitFixture()
	if err != nil {
		return nil, err
	}
	// One signed stream serves every channel: the committer clones each
	// ordered block before annotating it, and every channel owns fresh
	// stores, so the only shared resource is the modeled host — exactly the
	// contention under test.
	stream, err := f.buildStream(cfg.Blocks, cfg.BlockSize, cfg.WritesPerTx)
	if err != nil {
		return nil, err
	}

	var baseTps float64
	for _, count := range cfg.ChannelCounts {
		exec := device.NewExecutor(cfg.Profile, device.RealClock{ScaleFactor: cfg.Scale}, cfg.Seed)
		pipes := make([]*channelPipe, count)
		for i := range pipes {
			pipes[i] = newChannelPipe(f, exec, len(stream), cfg.Workers)
		}
		errs := make([]error, count)
		start := time.Now()
		var wg sync.WaitGroup
		for i, p := range pipes {
			wg.Add(1)
			go func(i int, p *channelPipe) {
				defer wg.Done()
				errs[i] = p.drain(stream)
			}(i, p)
		}
		wg.Wait()
		elapsed := time.Since(start)
		all := NewHistogram()
		for i, p := range pipes {
			p.eng.Close()
			if errs[i] != nil {
				return nil, errs[i]
			}
			all.Merge(p.lat)
		}
		row := ChannelBenchRow{
			Channels:     count,
			AggregateTps: float64(count*cfg.Blocks*cfg.BlockSize) / elapsed.Seconds() * cfg.Scale,
			P99Ms:        float64(all.Summarize().Scaled(cfg.Scale).P99) / float64(time.Millisecond),
		}
		row.PerChannelTps = row.AggregateTps / float64(count)
		if baseTps == 0 {
			baseTps = row.AggregateTps
		}
		row.Speedup = row.AggregateTps / baseTps
		res.Rows = append(res.Rows, row)
	}

	iso, err := runChannelIsolation(f, cfg, stream)
	if err != nil {
		return nil, err
	}
	res.Isolation = iso
	return res, nil
}

// runChannelIsolation measures the paced quiet tenant's per-block p99 with
// the host to itself and again while a hot tenant floods a sibling channel.
//
// The isolation mechanism under test is static core partitioning — the
// cgroup/pinning move an operator makes for a noisy tenant: each channel's
// pipeline is charged against its own reserved half of the host's cores
// (work-conserving sharing, measured by the scaling section above, trades
// that reservation for utilization and lets a flood inflate sibling tails).
// The solo baseline runs under the same quota, so the delta isolates the
// hot tenant's presence rather than the quota itself.
func runChannelIsolation(f *commitFixture, cfg channelConfig, hotStream []*blockstore.Block) (*ChannelIsolation, error) {
	quietStream, err := f.buildStream(cfg.QuietBlocks, cfg.QuietBlockSize, cfg.WritesPerTx)
	if err != nil {
		return nil, err
	}
	hot := hotStream[:min(cfg.HotBlocks, len(hotStream))]
	quietProfile, hotProfile := cfg.Profile, cfg.Profile
	quietProfile.Cores = max(1, cfg.Profile.Cores/2)
	hotProfile.Cores = max(1, cfg.Profile.Cores-quietProfile.Cores)

	runQuiet := func(withHot bool) (p99Ms, hotTps float64, err error) {
		exec := device.NewExecutor(quietProfile, device.RealClock{ScaleFactor: cfg.Scale}, cfg.Seed)
		quiet := newChannelPipe(f, exec, len(quietStream), cfg.Workers)
		defer quiet.eng.Close()
		var hotPipe *channelPipe
		var hotErr error
		var hotElapsed time.Duration
		var wg sync.WaitGroup
		if withHot {
			hotExec := device.NewExecutor(hotProfile, device.RealClock{ScaleFactor: cfg.Scale}, cfg.Seed+1)
			hotPipe = newChannelPipe(f, hotExec, len(hot), cfg.Workers)
			defer hotPipe.eng.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				hotStart := time.Now()
				hotErr = hotPipe.drain(hot)
				hotElapsed = time.Since(hotStart)
			}()
		}
		start := time.Now()
		for n, b := range quietStream {
			// Fixed wall-clock cadence: sleep to the next tick, then submit.
			time.Sleep(time.Until(start.Add(time.Duration(n) * cfg.QuietInterval)))
			quiet.submitted[b.Header.Number] = time.Now()
			if !quiet.eng.Submit(b) {
				return 0, 0, fmt.Errorf("bench: quiet block %d rejected", b.Header.Number)
			}
		}
		quiet.eng.Sync()
		wg.Wait()
		if hotErr != nil {
			return 0, 0, hotErr
		}
		if withHot && hotElapsed > 0 {
			hotTps = float64(len(hot)*cfg.BlockSize) / hotElapsed.Seconds() * cfg.Scale
		}
		p99 := quiet.lat.Summarize().Scaled(cfg.Scale).P99
		return float64(p99) / float64(time.Millisecond), hotTps, nil
	}

	soloP99, _, err := runQuiet(false)
	if err != nil {
		return nil, err
	}
	hotP99, hotTps, err := runQuiet(true)
	if err != nil {
		return nil, err
	}
	iso := &ChannelIsolation{
		QuietBlockSize: cfg.QuietBlockSize,
		HotBlockSize:   cfg.BlockSize,
		QuietSoloP99Ms: soloP99,
		QuietHotP99Ms:  hotP99,
		HotTps:         hotTps,
	}
	if soloP99 > 0 {
		iso.DegradationPct = (hotP99 - soloP99) / soloP99 * 100
	}
	return iso, nil
}
