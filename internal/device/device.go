// Package device models the hardware the paper evaluates on. The authors
// ran the same 4-node HyperProv network on x86-64 desktops (Xeon E5-1603,
// i7-4700MQ, i3-2310M) and on Raspberry Pi 3B+ ARM64 devices; absolute
// performance differed by roughly an order of magnitude while the shape of
// the throughput/latency curves stayed the same. Since that hardware is not
// available here, each device is described by a calibrated cost profile
// (hash throughput, signature latency, per-transaction overheads, NIC
// bandwidth and RTT, jitter) and a Clock that turns modeled durations into
// (optionally scaled) real sleeps. Busy-time accounting feeds the energy
// model of internal/energy.
package device

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Clock injects modeled latency into an execution. Implementations may
// scale modeled time down so the figure benchmarks finish quickly; the
// bench harness converts measurements back into modeled units.
type Clock interface {
	// Sleep blocks for the (possibly scaled) modeled duration d.
	Sleep(d time.Duration)
	// Scale returns the wall-time-per-modeled-time factor (1.0 = real time).
	Scale() float64
}

// RealClock sleeps for modeled durations multiplied by ScaleFactor.
type RealClock struct {
	// ScaleFactor compresses modeled time; 0.02 runs 50x faster than the
	// modeled hardware. Zero is treated as 1.0.
	ScaleFactor float64
}

var _ Clock = RealClock{}

// Sleep sleeps for d scaled by the clock's factor.
func (c RealClock) Sleep(d time.Duration) {
	s := c.Scale()
	scaled := time.Duration(float64(d) * s)
	if scaled > 0 {
		time.Sleep(scaled)
	}
}

// Scale returns the effective scale factor.
func (c RealClock) Scale() float64 {
	if c.ScaleFactor <= 0 {
		return 1.0
	}
	return c.ScaleFactor
}

// NopClock never sleeps; it is used by unit tests and by pure virtual-time
// accounting (energy model), where only the recorded busy time matters.
type NopClock struct{}

var _ Clock = NopClock{}

// Sleep returns immediately.
func (NopClock) Sleep(time.Duration) {}

// Scale returns 0, signalling that wall time carries no modeled meaning.
func (NopClock) Scale() float64 { return 0 }

// Profile is the calibrated cost model for one device class.
type Profile struct {
	Name string
	// Cores is the number of CPU cores (for utilization accounting).
	Cores int
	// HashMBps is SHA-256 throughput in MiB/s. Checksum calculation is the
	// dominant per-payload CPU cost in HyperProv's StoreData path.
	HashMBps float64
	// SignLatency / VerifyLatency are per-ECDSA-operation costs.
	SignLatency   time.Duration
	VerifyLatency time.Duration
	// EndorseOverhead is the fixed peer-side cost of simulating a proposal
	// (chaincode container round-trip in real Fabric).
	EndorseOverhead time.Duration
	// CommitOverhead is the fixed peer-side cost of validating and
	// committing one transaction within a block.
	CommitOverhead time.Duration
	// OrderLatency is the orderer's per-batch processing cost.
	OrderLatency time.Duration
	// LinkMbps is NIC bandwidth in megabits per second; LinkRTT is the
	// one-way network latency to a LAN neighbour.
	LinkMbps float64
	LinkRTT  time.Duration
	// StoreLatency is the off-chain storage service's fixed per-operation
	// cost (SSHFS open/close handshake overhead in the paper's setup).
	StoreLatency time.Duration
	// StoreMBps is the effective SSHFS throughput in MiB/s between this
	// device and the storage node. SSH encryption and FUSE overhead keep
	// it well below line rate, which is why the off-chain transfer
	// dominates HyperProv's large-payload measurements.
	StoreMBps float64
	// JitterPct is the uniform ± percentage applied to every modeled cost.
	// The paper observes visibly larger variance on the RPi (Fig 2).
	JitterPct float64
}

// Calibrated device profiles. The values reproduce the relative ordering
// and rough magnitudes reported for the paper's testbed: desktop-class
// machines hash at several hundred MiB/s and sign in well under a
// millisecond, while the RPi 3B+ (Cortex-A53 @ 1.4 GHz) is roughly an order
// of magnitude slower on CPU-bound work and runs a 100 Mbps NIC.
var (
	// XeonE51603 models the Intel Xeon E5-1603 @ 2.80 GHz desktops.
	XeonE51603 = Profile{
		Name: "xeon-e5-1603", Cores: 4,
		HashMBps: 420, SignLatency: 280 * time.Microsecond, VerifyLatency: 750 * time.Microsecond,
		EndorseOverhead: 8 * time.Millisecond, CommitOverhead: 4 * time.Millisecond,
		OrderLatency: 900 * time.Microsecond,
		LinkMbps:     1000, LinkRTT: 250 * time.Microsecond,
		StoreLatency: 2 * time.Millisecond, StoreMBps: 45, JitterPct: 0.08,
	}
	// I74700MQ models the Intel i7-4700MQ @ 2.40 GHz laptop node.
	I74700MQ = Profile{
		Name: "i7-4700mq", Cores: 4,
		HashMBps: 390, SignLatency: 300 * time.Microsecond, VerifyLatency: 800 * time.Microsecond,
		EndorseOverhead: 9 * time.Millisecond, CommitOverhead: 5 * time.Millisecond,
		OrderLatency: 1 * time.Millisecond,
		LinkMbps:     1000, LinkRTT: 250 * time.Microsecond,
		StoreLatency: 2 * time.Millisecond, StoreMBps: 45, JitterPct: 0.08,
	}
	// I32310M models the Intel i3-2310M @ 2.10 GHz laptop node.
	I32310M = Profile{
		Name: "i3-2310m", Cores: 2,
		HashMBps: 260, SignLatency: 420 * time.Microsecond, VerifyLatency: 1100 * time.Microsecond,
		EndorseOverhead: 12 * time.Millisecond, CommitOverhead: 6 * time.Millisecond,
		OrderLatency: 1300 * time.Microsecond,
		LinkMbps:     1000, LinkRTT: 250 * time.Microsecond,
		StoreLatency: 2500 * time.Microsecond, StoreMBps: 35, JitterPct: 0.10,
	}
	// RPi3BPlus models the Raspberry Pi 3B+ (Cortex-A53 @ 1.4 GHz, ARM64,
	// 100 Mbps Ethernet). CPU-bound costs are ~8-12x the desktops'; the
	// paper's Fig 2 also shows markedly higher variance, captured by the
	// larger jitter.
	RPi3BPlus = Profile{
		Name: "rpi-3b+", Cores: 4,
		HashMBps: 38, SignLatency: 2800 * time.Microsecond, VerifyLatency: 7500 * time.Microsecond,
		EndorseOverhead: 80 * time.Millisecond, CommitOverhead: 40 * time.Millisecond,
		OrderLatency: 9 * time.Millisecond,
		LinkMbps:     94, LinkRTT: 400 * time.Microsecond,
		StoreLatency: 6 * time.Millisecond, StoreMBps: 8, JitterPct: 0.25,
	}
)

// HashCost returns the modeled time to SHA-256 n bytes.
func (p Profile) HashCost(n int) time.Duration {
	if p.HashMBps <= 0 || n <= 0 {
		return 0
	}
	sec := float64(n) / (p.HashMBps * 1024 * 1024)
	return time.Duration(sec * float64(time.Second))
}

// StoreCost returns the modeled time for one SSHFS operation moving n
// bytes.
func (p Profile) StoreCost(n int) time.Duration {
	d := p.StoreLatency
	if p.StoreMBps > 0 && n > 0 {
		sec := float64(n) / (p.StoreMBps * 1024 * 1024)
		d += time.Duration(sec * float64(time.Second))
	}
	return d
}

// TransferCost returns the modeled time to move n bytes across the link,
// including one RTT of latency.
func (p Profile) TransferCost(n int) time.Duration {
	d := p.LinkRTT
	if p.LinkMbps > 0 && n > 0 {
		sec := float64(n) * 8 / (p.LinkMbps * 1e6)
		d += time.Duration(sec * float64(time.Second))
	}
	return d
}

// Executor applies a profile's costs on a clock, with jitter, and accounts
// busy time for utilization/energy reporting. Two semaphores model the
// device's finite resources: CPU-bound operations contend for Cores slots,
// and link operations serialize on the NIC. This contention is what bends
// the throughput curve when concurrent clients pile onto one device.
//
// A nil *Executor is the absence of a hardware model: every charge is a
// no-op costing nothing and its clock never sleeps, so modeled and real runs
// execute the same statements.
type Executor struct {
	profile Profile
	clock   Clock

	mu  sync.Mutex
	rng *rand.Rand

	sems [2]chan struct{} // indexed by resource

	busyNanos atomic.Int64
	started   time.Time
}

// NewExecutor creates an executor for the profile on the given clock.
// seed makes jitter deterministic for tests.
func NewExecutor(p Profile, clock Clock, seed int64) *Executor {
	cores := p.Cores
	if cores <= 0 {
		cores = 1
	}
	return &Executor{
		profile: p,
		clock:   clock,
		rng:     rand.New(rand.NewSource(seed)),
		sems:    [2]chan struct{}{cpu: make(chan struct{}, cores), link: make(chan struct{}, 1)},
		started: time.Now(),
	}
}

// resource names one of an executor's two semaphores.
type resource int

const (
	cpu resource = iota
	link
)

// Profile returns the executor's device profile; a nil executor's is the
// zero Profile, whose every cost is zero.
func (e *Executor) Profile() Profile {
	if e == nil {
		return Profile{}
	}
	return e.profile
}

// Clock returns the executor's clock; a nil executor's is NopClock.
func (e *Executor) Clock() Clock {
	if e == nil {
		return NopClock{}
	}
	return e.clock
}

func (e *Executor) jitter(d time.Duration) time.Duration {
	if e.profile.JitterPct <= 0 || d <= 0 {
		return d
	}
	e.mu.Lock()
	f := 1 + e.profile.JitterPct*(2*e.rng.Float64()-1)
	e.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// spend sleeps the jittered modeled duration while holding a slot of the
// given resource's semaphore, and records it as busy time.
func (e *Executor) spend(r resource, d time.Duration) time.Duration {
	if e == nil {
		return 0
	}
	d = e.jitter(d)
	if d <= 0 {
		return 0
	}
	e.sems[r] <- struct{}{}
	e.busyNanos.Add(int64(d))
	e.clock.Sleep(d)
	<-e.sems[r]
	return d
}

// Hash models checksumming n bytes. It returns the modeled duration spent.
func (e *Executor) Hash(n int) time.Duration { return e.spend(cpu, e.Profile().HashCost(n)) }

// Sign models one ECDSA signature.
func (e *Executor) Sign() time.Duration { return e.spend(cpu, e.Profile().SignLatency) }

// Verify models one ECDSA verification.
func (e *Executor) Verify() time.Duration { return e.spend(cpu, e.Profile().VerifyLatency) }

// Endorse models the fixed per-proposal peer cost.
func (e *Executor) Endorse() time.Duration { return e.spend(cpu, e.Profile().EndorseOverhead) }

// Commit models the fixed per-transaction commit cost.
func (e *Executor) Commit() time.Duration { return e.spend(cpu, e.Profile().CommitOverhead) }

// Order models the orderer's per-batch cost.
func (e *Executor) Order() time.Duration { return e.spend(cpu, e.Profile().OrderLatency) }

// Transfer models moving n bytes across the device's network link. Link
// transfers serialize: a NIC moves one stream's bytes at a time.
func (e *Executor) Transfer(n int) time.Duration {
	return e.spend(link, e.Profile().TransferCost(n))
}

// StoreTransfer models moving n bytes to or from the off-chain store over
// SSHFS: fixed per-op latency plus n bytes at the effective SSHFS rate,
// serialized on the NIC.
func (e *Executor) StoreTransfer(n int) time.Duration {
	return e.spend(link, e.Profile().StoreCost(n))
}

// BusyTime returns total modeled busy time accumulated so far.
func (e *Executor) BusyTime() time.Duration {
	return time.Duration(e.busyNanos.Load())
}

// Utilization estimates device utilization over the modeled window: busy
// time divided by (window × cores), capped at 1. window is in modeled time.
func (e *Executor) Utilization(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	cores := e.profile.Cores
	if cores <= 0 {
		cores = 1
	}
	u := float64(e.BusyTime()) / (float64(window) * float64(cores))
	if u > 1 {
		return 1
	}
	return u
}

// ResetBusy zeroes the busy-time counter (start of a measurement phase).
func (e *Executor) ResetBusy() { e.busyNanos.Store(0) }
