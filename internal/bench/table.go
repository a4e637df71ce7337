package bench

// Report is what an experiment returns: the text table its figure plots
// (Format) and, through plain encoding/json on the concrete value, the
// same rows as data.
type Report interface {
	Format() string
}

// The two clocks an experiment's numbers can be in. Modeled results charge
// per-operation costs through a device.Executor and report modeled hardware
// time; real results are this host's wall clock. The two are never mixed in
// one table.
const (
	ClockModeled = "modeled"
	ClockReal    = "real"
)

// Experiment is one row of the harness: a name the CLI selects it by, the
// clock its numbers are in, and the function that runs it (quick selects
// the reduced sweep sizes and windows).
type Experiment struct {
	Name  string
	Clock string
	Run   func(quick bool) (Report, error)
}

// Experiments is the whole harness, in the order `-experiment all` runs it:
// the paper's three figures, then the ablations. Whatever is judged on the
// real clock end to end lives in benchmark/ (BENCHMARK.json), not here.
var Experiments = []Experiment{
	{"fig1", ClockModeled, runFig1},
	{"fig2", ClockModeled, runFig2},
	{"fig3", ClockModeled, runFig3},
	{"batch", ClockModeled, runBatchAblation},
	{"onchain", ClockModeled, runOnchainAblation},
	{"raft", ClockModeled, runRaftAblation},
	{"query", ClockReal, runQueryBench},
	{"channels", ClockModeled, runChannelBench},
}
