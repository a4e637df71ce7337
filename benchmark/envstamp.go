package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// envStamp records where and when a result was measured, so a number can be
// traced back to its machine, toolchain and commit.
type envStamp struct {
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	// Tmpfs says whether the output directory, where the durable-path probes
	// write, is on a tmpfs: flushes are free there. The gated workloads touch
	// no disk either way.
	Tmpfs        bool   `json:"tmpfs"`
	LoadavgStart string `json:"loadavgStart"`
	LoadavgEnd   string `json:"loadavgEnd"`
	// StealShare is the share of the machine's CPU time between start and
	// end that the hypervisor gave to other guests (/proc/stat): near zero
	// in the box's fast spells, 0.05–0.2 in its slow ones.
	StealShare float64 `json:"stealShare"`

	steal0, total0 float64
}

func newEnvStamp(seed int64, outDir string) *envStamp {
	steal, total := cpuJiffies()
	return &envStamp{
		steal0:       steal,
		total0:       total,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Commit:       buildCommit(),
		Seed:         seed,
		Tmpfs:        onTmpfs(outDir),
		LoadavgStart: readLoadavg(),
	}
}

func (e *envStamp) finish() {
	e.LoadavgEnd = readLoadavg()
	e.StealShare = e.stolenSoFar()
}

// stolenSoFar is the share of the machine's CPU time since the stamp was
// taken that went to other guests.
func (e *envStamp) stolenSoFar() float64 {
	steal, total := cpuJiffies()
	if total <= e.total0 {
		return 0
	}
	return (steal - e.steal0) / (total - e.total0)
}

// cpuJiffies reads the machine's stolen and total CPU time off the first
// line of /proc/stat (user nice system idle iowait irq softirq steal); zeros
// where there is no such file.
func cpuJiffies() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// buildCommit reads the revision the toolchain stamped into the binary;
// a checkout that is not a git repository has none.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}

func readLoadavg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(raw))
}

// overloaded reports whether a loadavg line's 1-minute figure exceeds the
// core count: the box was being shared while the run measured.
func overloaded(loadavg string, cores int) bool {
	fields := strings.Fields(loadavg)
	if len(fields) == 0 {
		return false
	}
	one, err := strconv.ParseFloat(fields[0], 64)
	return err == nil && one > float64(cores)
}

func (e *envStamp) print(w io.Writer) {
	fmt.Fprintf(w, "env: go=%s GOMAXPROCS=%d nproc=%d commit=%s seed=%d tmpfs=%v steal=%.4f loadavg_start=[%s] loadavg_end=[%s]\n",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Commit, e.Seed, e.Tmpfs, e.StealShare, e.LoadavgStart, e.LoadavgEnd)
	if overloaded(e.LoadavgStart, e.NumCPU) || overloaded(e.LoadavgEnd, e.NumCPU) {
		fmt.Fprintf(w, "WARNING: 1-minute loadavg exceeds nproc=%d; wall-clock metrics of this run are suspect\n", e.NumCPU)
	}
}
