package bench

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/energy"
	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// sweepConfig parameterizes the payload-size sweeps of Figs 1–2.
type sweepConfig struct {
	// Sizes are the data-item sizes on the x-axis.
	Sizes []int
	// Workers is the number of concurrent closed-loop clients.
	Workers int
	// WallPerPoint is the wall-clock measurement window per size.
	WallPerPoint time.Duration
	// Scale compresses modeled time (0.05 runs 20x faster than the
	// modeled hardware); results are reported in modeled units.
	Scale float64
	// Seed fixes jitter.
	Seed int64
}

// quickWall is the measurement window per point of every -quick
// closed-loop experiment.
const quickWall = 1200 * time.Millisecond

// sweepConfigFor returns the figure-quality sweep, or the reduced one.
func sweepConfigFor(quick bool) sweepConfig {
	cfg := sweepConfig{
		Sizes:        []int{1 << 10, 8 << 10, 64 << 10, 512 << 10, 1 << 20, 4 << 20},
		Workers:      16,
		WallPerPoint: 4 * time.Second,
		Scale:        1.0,
		Seed:         1,
	}
	if quick {
		cfg.Sizes = []int{1 << 10, 256 << 10, 1 << 20}
		cfg.WallPerPoint = quickWall
	}
	return cfg
}

// Row is one measured point of a figure.
type Row struct {
	Label      string
	Size       int
	Throughput float64 // modeled tx/s
	Latency    Summary // modeled durations
	Errors     int64
}

// Result is one regenerated figure/table.
type Result struct {
	Name        string
	Description string
	Rows        []Row
}

// Format renders the result as an aligned text table (the rows the paper's
// figures plot).
func (r Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n%s\n", r.Name, r.Description)
	fmt.Fprintf(&sb, "%-10s %12s %12s %12s %12s %12s %8s\n",
		"size", "tput(tx/s)", "mean", "p50", "p95", "p99", "errs")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s %12.2f %12s %12s %12s %12s %8d\n",
			row.Label, row.Throughput,
			fmtDur(row.Latency.Mean), fmtDur(row.Latency.P50),
			fmtDur(row.Latency.P95), fmtDur(row.Latency.P99), row.Errors)
	}
	return sb.String()
}

func fmtDur(d time.Duration) string {
	return d.Truncate(time.Millisecond).String()
}

// newNetwork builds and deploys a ready network for one measurement point.
func newNetwork(cfg fabric.Config, scale float64, seed int64) (*fabric.Network, error) {
	cfg.Clock = device.RealClock{ScaleFactor: scale}
	cfg.Seed = seed
	n, err := fabric.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	if err := n.DeployChaincode(provenance.ChaincodeName,
		func() shim.Chaincode { return provenance.New() }); err != nil {
		n.Stop()
		return nil, err
	}
	return n, nil
}

// newClients creates `workers` HyperProv clients sharing one client-machine
// executor and one off-chain store, mirroring the paper's single benchmark
// node driving many concurrent requests.
func newClients(n *fabric.Network, workers int, prof device.Profile, scale float64, seed int64) ([]*core.Client, error) {
	return newClientsOn(n, workers, device.NewExecutor(prof, device.RealClock{ScaleFactor: scale}, seed+9999))
}

// newClientsOn is newClients on an existing machine: every client signs on
// exec and pays its payload checksum and storage transfer there.
func newClientsOn(n *fabric.Network, workers int, exec *device.Executor) ([]*core.Client, error) {
	store := offchain.NewMemStore()
	clients := make([]*core.Client, workers)
	for w := range clients {
		gw, err := n.NewGatewayOn("bench", exec)
		if err != nil {
			return nil, err
		}
		if clients[w], err = core.New(gw, core.WithStore(gw.MeteredStore(store))); err != nil {
			return nil, err
		}
	}
	return clients, nil
}

// payloadFactory returns per-worker reusable payload buffers; each call
// stamps the iteration so every stored object is unique (content
// addressing would otherwise deduplicate).
func payloadFactory(workers, size int, seed int64) func(worker, iteration int) []byte {
	bufs := make([][]byte, workers)
	rng := rand.New(rand.NewSource(seed))
	for w := range bufs {
		bufs[w] = make([]byte, size)
		rng.Read(bufs[w])
	}
	return func(worker, iteration int) []byte {
		buf := bufs[worker%len(bufs)]
		if len(buf) >= 16 {
			binary.BigEndian.PutUint64(buf, uint64(worker))
			binary.BigEndian.PutUint64(buf[8:], uint64(iteration))
		}
		return buf
	}
}

// runSizeSweep measures StoreData throughput and response time across
// payload sizes on the given hardware configuration.
func runSizeSweep(name, desc string, netCfg fabric.Config, clientProf device.Profile, cfg sweepConfig) (Report, error) {
	res := Result{Name: name, Description: desc}
	for i, size := range cfg.Sizes {
		n, err := newNetwork(netCfg, cfg.Scale, cfg.Seed+int64(i)*101)
		if err != nil {
			return nil, err
		}
		clients, err := newClients(n, cfg.Workers, clientProf, cfg.Scale, cfg.Seed)
		if err != nil {
			n.Stop()
			return nil, err
		}
		payload := payloadFactory(cfg.Workers, size, cfg.Seed)

		run := RunClosedLoop(cfg.Workers, cfg.WallPerPoint, func(w, it int) error {
			key := fmt.Sprintf("item-%d-%d-%d", i, w, it)
			_, err := clients[w].StoreData(key, payload(w, it), core.PostOptions{})
			return err
		})
		n.Stop()

		res.Rows = append(res.Rows, Row{
			Label:      FormatSize(size),
			Size:       size,
			Throughput: run.ModeledThroughput(cfg.Scale),
			Latency:    run.Latency.Summarize().Scaled(cfg.Scale),
			Errors:     run.Errs,
		})
	}
	return res, nil
}

// runFig1 regenerates Fig 1: throughput and response times vs data-item
// size on the desktop network (4 x86-64 peers, solo orderer, off-chain
// storage involved).
func runFig1(quick bool) (Report, error) {
	return runSizeSweep(
		"Fig 1: desktop throughput & response time vs payload size",
		"4 desktop peers (2x Xeon E5-1603, i7-4700MQ, i3-2310M), solo orderer, SSHFS-model off-chain store",
		fabric.DesktopConfig(), device.XeonE51603, sweepConfigFor(quick))
}

// runFig2 regenerates Fig 2: the same sweep on the RPi 3B+ network.
func runFig2(quick bool) (Report, error) {
	return runSizeSweep(
		"Fig 2: RPi throughput & response time vs payload size",
		"4 Raspberry Pi 3B+ peers (Cortex-A53 @1.4GHz, 100Mbps), solo orderer, SSHFS-model off-chain store",
		fabric.RPiConfig(), device.RPi3BPlus, sweepConfigFor(quick))
}

// energyConfig parameterizes the Fig 3 experiment.
type energyConfig struct {
	// Loads are the closed-loop worker counts per load phase; 0 workers is
	// the idle-with-HLF phase.
	Loads []int
	// WallPerPhase is the wall window used to measure utilization.
	WallPerPhase time.Duration
	// PhaseDuration is the modeled metering interval (10 min in Fig 3).
	PhaseDuration time.Duration
	// Scale compresses modeled time during the load measurement.
	Scale float64
	// Seed fixes jitter and meter noise.
	Seed int64
}

// energyConfigFor returns the figure-quality energy run, or the reduced one.
func energyConfigFor(quick bool) energyConfig {
	cfg := energyConfig{
		Loads:         []int{0, 2, 4, 8, 16},
		WallPerPhase:  2 * time.Second,
		PhaseDuration: 10 * time.Minute,
		Scale:         1.0,
		Seed:          1,
	}
	if quick {
		cfg.Loads = []int{0, 8}
		cfg.WallPerPhase = 900 * time.Millisecond
	}
	return cfg
}

// EnergyRow is one Fig-3 phase measurement.
type EnergyRow struct {
	Phase        string
	Workers      int
	Throughput   float64 // modeled tx/s sustained during the phase
	Utilization  float64
	AvgWatts     float64
	MaxWatts     float64
	EnergyJoules float64
}

// EnergyResult is the regenerated Fig 3.
type EnergyResult struct {
	Name        string
	Description string
	Rows        []EnergyRow
}

// Format renders the Fig-3 table.
func (r EnergyResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n%s\n", r.Name, r.Description)
	fmt.Fprintf(&sb, "%-12s %8s %12s %8s %8s %8s %12s\n",
		"phase", "workers", "tput(tx/s)", "util", "avg W", "max W", "energy J")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-12s %8d %12.2f %7.0f%% %8.2f %8.2f %12.1f\n",
			row.Phase, row.Workers, row.Throughput, row.Utilization*100,
			row.AvgWatts, row.MaxWatts, row.EnergyJoules)
	}
	return sb.String()
}

// runFig3 regenerates Fig 3: RPi energy consumption over 10-minute modeled
// intervals at increasing load levels. Utilization is measured by actually
// driving the RPi-profile network; power is integrated by the calibrated
// meter model.
func runFig3(quick bool) (Report, error) {
	cfg := energyConfigFor(quick)
	res := EnergyResult{
		Name:        "Fig 3: RPi energy consumption, 10-minute intervals",
		Description: "ODROID-model meter; peer+client on one RPi 3B+; loads from idle to peak",
	}
	model := energy.RPiPowerModel()

	// Baseline phase: idle RPi without the blockchain stack.
	base, err := energy.RunPhases(model, []energy.Phase{{
		Name: "idle", Duration: cfg.PhaseDuration, Util: 0, HLFRunning: false,
	}}, time.Second, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, EnergyRow{
		Phase:        "idle",
		AvgWatts:     base[0].Report.AvgWatts,
		MaxWatts:     base[0].Report.MaxWatts,
		EnergyJoules: base[0].Report.EnergyJoules,
	})

	for i, workers := range cfg.Loads {
		n, err := newNetwork(fabric.RPiConfig(), cfg.Scale, cfg.Seed+int64(i)*113)
		if err != nil {
			return nil, err
		}
		util, tput, err := measureUtilization(n, workers, cfg)
		n.Stop()
		if err != nil {
			return nil, err
		}

		name := fmt.Sprintf("load-%d", workers)
		if workers == 0 {
			name = "idle+HLF"
		}
		phases, err := energy.RunPhases(model, []energy.Phase{{
			Name: name, Duration: cfg.PhaseDuration, Util: util, HLFRunning: true,
		}}, time.Second, cfg.Seed+int64(i)*7)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, EnergyRow{
			Phase:        name,
			Workers:      workers,
			Throughput:   tput,
			Utilization:  util,
			AvgWatts:     phases[0].Report.AvgWatts,
			MaxWatts:     phases[0].Report.MaxWatts,
			EnergyJoules: phases[0].Report.EnergyJoules,
		})
	}

	// Saturation phase: the paper's peak-load anchor (device fully busy).
	// Closed-loop clients on the modeled RPi rarely reach 100% utilization
	// within a short measurement window, so the full-load point is metered
	// at util=1 directly.
	peak, err := energy.RunPhases(model, []energy.Phase{{
		Name: "peak", Duration: cfg.PhaseDuration, Util: 1.0, HLFRunning: true,
	}}, time.Second, cfg.Seed+7777)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, EnergyRow{
		Phase:        "peak",
		Utilization:  1.0,
		AvgWatts:     peak[0].Report.AvgWatts,
		MaxWatts:     peak[0].Report.MaxWatts,
		EnergyJoules: peak[0].Report.EnergyJoules,
	})
	return res, nil
}

// measureUtilization drives the network with `workers` closed-loop clients
// for the wall window and returns peer-0's utilization over the modeled
// window plus modeled throughput. The paper's Fig 3 device runs both a
// peer and the client process, so client costs are charged to the peer's
// executor as well.
func measureUtilization(n *fabric.Network, workers int, cfg energyConfig) (float64, float64, error) {
	peerExec := n.Peers()[0].Executor()
	peerExec.ResetBusy()
	if workers == 0 {
		time.Sleep(cfg.WallPerPhase)
		return 0, 0, nil
	}
	// The client shares the metered RPi.
	clients, err := newClientsOn(n, workers, peerExec)
	if err != nil {
		return 0, 0, err
	}
	payload := payloadFactory(workers, 32<<10, cfg.Seed)
	run := RunClosedLoop(workers, cfg.WallPerPhase, func(w, it int) error {
		_, err := clients[w].StoreData(fmt.Sprintf("e-%d-%d", w, it), payload(w, it), core.PostOptions{})
		return err
	})
	modeledWindow := time.Duration(float64(run.WallDuration) / cfg.Scale)
	util := peerExec.Utilization(modeledWindow)
	return util, run.ModeledThroughput(cfg.Scale), nil
}

// encodePayloadMeta packs a payload into record metadata for the on-chain
// ablation (Abl B): the whole payload rides inside the transaction.
func encodePayloadMeta(data []byte) map[string]string {
	return map[string]string{"data": base64.StdEncoding.EncodeToString(data)}
}
