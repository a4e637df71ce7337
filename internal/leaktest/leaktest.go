// Package leaktest counts goroutines by the function they run, so a test can
// check that the chain followers or connection handlers it started have
// returned.
package leaktest

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// The chain's followers, as stack traces name them. A goroutine is counted
// from its go statement on only if that statement takes no arguments: one
// that does runs behind a compiler wrapper (….gowrapN) until first scheduled.
const (
	PeerFeed    = "peer.(*Peer).Start.func1"
	EventCursor = "peer.(*Peer).SubscribeEvents.func1"
	CommitWait  = "peer.(*Peer).WaitTx"
	Watch       = "core.(*Client).Watch.func1"
)

// ObjectServe is the object server's handler of one connection: the op
// table's loop, which every served connection runs — in a test that serves
// nothing else, the object server's connections.
const ObjectServe = "network.(*Table).Serve"

// Count returns how many goroutines are running one of fns.
func Count(fns ...string) (n int) {
	buf := make([]byte, 4<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, fn := range fns {
		n += strings.Count(stacks, fn+"(")
	}
	return n
}

// Settle waits up to five seconds for Count(fns...) to fall to want.
func Settle(t testing.TB, want int, fns ...string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); Count(fns...) > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running %v, want %d", Count(fns...), fns, want)
		}
	}
}
