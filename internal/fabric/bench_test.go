package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/identity"
)

// BenchmarkSubmitRealClock is the profiling handle on the per-transaction
// fixed cost: two clients submit metadata-only records to four peers with
// one-transaction blocks on device.NopClock (no modeled charge, only real
// work), and the clock stops once every peer has committed every block — the
// shape of benchmark/'s post_e2e workload, reachable by `go test
// -cpuprofile/-memprofile` (`make profile-post`). It exists to show where time
// and bytes go. Gains are judged by benchmark/ (BENCHMARK.json), never by
// this number.
func BenchmarkSubmitRealClock(b *testing.B) {
	const clients = 2
	n := newTestNetwork(b, testConfig())
	gws := make([]*Gateway, clients)
	for c := range gws {
		gw, err := n.NewGateway(fmt.Sprintf("bench%d", c))
		if err != nil {
			b.Fatal(err)
		}
		gws[c] = gw
		setRecord(b, gw, fmt.Sprintf("warm-%d", c), "sha256:warm")
	}
	signs0, verifies0 := identity.ECDSAOps()
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, gw := range gws {
		wg.Add(1)
		go func(gw *Gateway) {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				in := fmt.Sprintf(`{"key":"item-%d","checksum":"sha256:%d"}`, i, i)
				if _, err := gw.Submit(provenance.ChaincodeName, provenance.FnSet, []byte(in)); err != nil {
					b.Error(err)
					return
				}
			}
		}(gw)
	}
	wg.Wait()
	// Submit returns on the first peer's commit; the others' work belongs to
	// the transaction too.
	for _, p := range n.Peers() {
		for want := n.Orderer().Height(); p.Height() < want; {
			time.Sleep(100 * time.Microsecond)
		}
		p.Sync()
	}
	b.StopTimer()
	signs, verifies := identity.ECDSAOps()
	b.ReportMetric(float64(signs-signs0)/float64(b.N), "ecdsa-signs/op")
	b.ReportMetric(float64(verifies-verifies0)/float64(b.N), "ecdsa-verifies/op")
}
