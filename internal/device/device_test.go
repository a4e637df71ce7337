package device

import (
	"testing"
	"testing/quick"
	"time"
)

func TestHashCostScalesLinearly(t *testing.T) {
	p := XeonE51603
	c1 := p.HashCost(1 << 20)
	c8 := p.HashCost(8 << 20)
	ratio := float64(c8) / float64(c1)
	if ratio < 7.9 || ratio > 8.1 {
		t.Errorf("8MiB/1MiB hash cost ratio = %.2f, want ~8", ratio)
	}
	if p.HashCost(0) != 0 || p.HashCost(-5) != 0 {
		t.Error("non-positive sizes should cost 0")
	}
}

func TestRPiSlowerThanDesktop(t *testing.T) {
	size := 1 << 20
	if RPi3BPlus.HashCost(size) <= XeonE51603.HashCost(size) {
		t.Error("RPi hash not slower than Xeon")
	}
	if RPi3BPlus.SignLatency <= XeonE51603.SignLatency {
		t.Error("RPi sign not slower than Xeon")
	}
	if RPi3BPlus.TransferCost(size) <= XeonE51603.TransferCost(size) {
		t.Error("RPi transfer not slower than Xeon (100Mbps vs 1Gbps)")
	}
	// Paper: roughly an order of magnitude on CPU-bound work.
	ratio := float64(RPi3BPlus.HashCost(size)) / float64(XeonE51603.HashCost(size))
	if ratio < 5 || ratio > 20 {
		t.Errorf("RPi/Xeon hash ratio = %.1f, want 5-20x", ratio)
	}
}

func TestTransferCostIncludesRTT(t *testing.T) {
	p := Profile{LinkMbps: 100, LinkRTT: time.Millisecond}
	if got := p.TransferCost(0); got != time.Millisecond {
		t.Errorf("zero-byte transfer = %v, want 1ms RTT", got)
	}
	// 100 Mbps = 12.5 MB/s; 1.25MB should take ~100ms + 1ms RTT.
	got := p.TransferCost(1_250_000)
	if got < 95*time.Millisecond || got > 110*time.Millisecond {
		t.Errorf("1.25MB over 100Mbps = %v, want ~101ms", got)
	}
}

func TestExecutorAccountsBusyTime(t *testing.T) {
	p := XeonE51603
	p.JitterPct = 0 // deterministic
	e := NewExecutor(p, NopClock{}, 1)
	e.Sign()
	e.Verify()
	e.Hash(1 << 20)
	want := p.SignLatency + p.VerifyLatency + p.HashCost(1<<20)
	if got := e.BusyTime(); got != want {
		t.Errorf("BusyTime = %v, want %v", got, want)
	}
	e.ResetBusy()
	if e.BusyTime() != 0 {
		t.Error("ResetBusy did not zero counter")
	}
}

// TestNilExecutorIsNoOp: a nil executor is "no hardware model" — every
// charge returns zero without blocking, and its clock leaves the orderer's
// batch timeout unscaled — so call sites need no guard.
func TestNilExecutorIsNoOp(t *testing.T) {
	var e *Executor
	charges := map[string]time.Duration{
		"Hash": e.Hash(1 << 20), "Sign": e.Sign(), "Verify": e.Verify(), "Endorse": e.Endorse(),
		"Commit": e.Commit(), "Order": e.Order(),
		"Transfer": e.Transfer(1 << 20), "StoreTransfer": e.StoreTransfer(1 << 20),
	}
	for name, d := range charges {
		if d != 0 {
			t.Errorf("nil executor: %s charged %v, want 0", name, d)
		}
	}
	if _, nop := e.Clock().(NopClock); !nop || e.Clock().Scale() != 0 {
		t.Errorf("nil executor: Clock() = %#v, want NopClock (scale 0)", e.Clock())
	}
	if e.Profile() != (Profile{}) {
		t.Errorf("nil executor: Profile() = %+v, want the zero Profile", e.Profile())
	}
}

func TestExecutorJitterBounded(t *testing.T) {
	p := RPi3BPlus // 25% jitter
	e := NewExecutor(p, NopClock{}, 42)
	base := p.SignLatency
	lo := time.Duration(float64(base) * (1 - p.JitterPct - 1e-9))
	hi := time.Duration(float64(base) * (1 + p.JitterPct + 1e-9))
	for i := 0; i < 200; i++ {
		d := e.Sign()
		if d < lo || d > hi {
			t.Fatalf("jittered sign = %v outside [%v, %v]", d, lo, hi)
		}
	}
}

func TestUtilization(t *testing.T) {
	p := Profile{Name: "test", Cores: 2, SignLatency: time.Second}
	e := NewExecutor(p, NopClock{}, 1)
	e.Sign() // 1s busy
	if got := e.Utilization(time.Second); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5 (1s busy / 2 cores)", got)
	}
	if got := e.Utilization(100 * time.Millisecond); got != 1 {
		t.Errorf("Utilization capped = %v, want 1", got)
	}
	if got := e.Utilization(0); got != 0 {
		t.Errorf("Utilization(0) = %v", got)
	}
}

func TestRealClockScale(t *testing.T) {
	if got := (RealClock{}).Scale(); got != 1.0 {
		t.Errorf("default Scale = %v", got)
	}
	if got := (RealClock{ScaleFactor: 0.01}).Scale(); got != 0.01 {
		t.Errorf("Scale = %v", got)
	}
	// A scaled clock must sleep roughly scale*modeled.
	c := RealClock{ScaleFactor: 0.001}
	start := time.Now()
	c.Sleep(2 * time.Second) // should sleep ~2ms
	wall := time.Since(start)
	if wall > 200*time.Millisecond {
		t.Errorf("scaled sleep took %v, want ~2ms", wall)
	}
}

func TestNopClock(t *testing.T) {
	start := time.Now()
	NopClock{}.Sleep(time.Hour)
	if time.Since(start) > time.Second {
		t.Error("NopClock slept")
	}
	if (NopClock{}).Scale() != 0 {
		t.Error("NopClock scale != 0")
	}
}

// Property: hash cost is monotonic in size for every profile.
func TestQuickHashMonotonic(t *testing.T) {
	profiles := []Profile{XeonE51603, I74700MQ, I32310M, RPi3BPlus}
	f := func(a, b uint32) bool {
		x, y := int(a%(64<<20)), int(b%(64<<20))
		if x > y {
			x, y = y, x
		}
		for _, p := range profiles {
			if p.HashCost(x) > p.HashCost(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProfileNames(t *testing.T) {
	for _, p := range []Profile{XeonE51603, I74700MQ, I32310M, RPi3BPlus} {
		if p.Name == "" || p.Cores == 0 {
			t.Errorf("profile %+v missing name/cores", p)
		}
	}
}
