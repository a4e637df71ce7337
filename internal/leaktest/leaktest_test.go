package leaktest

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// A goroutine started by a go statement without arguments is counted right
// after the statement, before it has run: the rule every constant above
// relies on when a test counts followers it has just started. GOMAXPROCS(1)
// keeps the new goroutine off a CPU until this one blocks. A collection
// beforehand starts the GC's mark workers, so a cycle that Count's buffer
// triggers does not block this goroutine to start them.
func TestCountsGoroutineBeforeItRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	const fn = "leaktest.TestCountsGoroutineBeforeItRuns.func1"
	release := make(chan struct{})
	var ran atomic.Bool
	go func() {
		ran.Store(true)
		<-release
	}()
	n, early := Count(fn), !ran.Load()
	close(release)
	if n != 1 {
		t.Fatalf("Count(%q) = %d right after the go statement, want 1", fn, n)
	}
	if !early {
		t.Skip("the goroutine was scheduled before Count: nothing pinned on this run")
	}
	Settle(t, 0, fn)
}
