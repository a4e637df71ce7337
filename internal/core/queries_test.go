package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/leaktest"
)

func TestListPagination(t *testing.T) {
	c, _ := newClient(t)
	for i := 0; i < 7; i++ {
		if _, err := c.Post(fmt.Sprintf("sensor/%02d", i), "cs", PostOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Post("other/x", "cs", PostOptions{}); err != nil {
		t.Fatal(err)
	}

	page, err := c.List("sensor/", "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != 3 || page.Next == "" {
		t.Fatalf("page = %d records, next %q", len(page.Records), page.Next)
	}
	all, err := c.ListAll("sensor/")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 7 {
		t.Errorf("ListAll = %d records, want 7", len(all))
	}
	for i, rec := range all {
		if want := fmt.Sprintf("sensor/%02d", i); rec.Key != want {
			t.Errorf("record %d = %q, want %q (key order)", i, rec.Key, want)
		}
	}
}

func TestGetByCreatorAcrossClients(t *testing.T) {
	c, _ := newClient(t)
	other, err := New(mustGateway(t, c, "other-client"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("mine", "c1", PostOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Post("theirs", "c2", PostOptions{}); err != nil {
		t.Fatal(err)
	}

	mine, err := c.GetByCreator(c.Subject())
	if err != nil {
		t.Fatal(err)
	}
	if len(mine) != 1 || mine[0].Key != "mine" {
		t.Errorf("GetByCreator(self) = %+v", mine)
	}
	theirs, err := c.GetByCreator(other.Subject())
	if err != nil {
		t.Fatal(err)
	}
	if len(theirs) != 1 || theirs[0].Key != "theirs" {
		t.Errorf("GetByCreator(other) = %+v", theirs)
	}
}

// mustGateway enrolls a fresh client identity on the same network.
func mustGateway(t *testing.T, c *Client, name string) *fabric.Gateway {
	t.Helper()
	gw, err := channelOf(c).NewGateway(name)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

func TestQueryMetaEndToEnd(t *testing.T) {
	c, _ := newClient(t)
	if _, err := c.Post("a", "c1", PostOptions{Meta: map[string]string{"stage": "raw"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("b", "c2", PostOptions{Meta: map[string]string{"stage": "final"}}); err != nil {
		t.Fatal(err)
	}
	recs, err := c.QueryMeta("stage", "raw")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != "a" {
		t.Errorf("QueryMeta = %+v", recs)
	}
}

func TestGetChildren(t *testing.T) {
	c, _ := newClient(t)
	if _, err := c.Post("p", "c0", PostOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("child", "c1", PostOptions{Parents: []string{"p"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("grandchild", "c2", PostOptions{Parents: []string{"child"}}); err != nil {
		t.Fatal(err)
	}
	kids, err := c.GetChildren("p")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 1 || kids[0].Key != "child" {
		t.Errorf("GetChildren = %+v", kids)
	}
}

func TestChaincodeVersion(t *testing.T) {
	c, _ := newClient(t)
	v, err := c.ChaincodeVersion()
	if err != nil {
		t.Fatal(err)
	}
	if v == "" {
		t.Error("empty version")
	}
}

func TestOwnershipAcrossClients(t *testing.T) {
	c, _ := newClient(t)
	other, err := New(mustGateway(t, c, "intruder"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("protected", "c1", PostOptions{}); err != nil {
		t.Fatal(err)
	}
	// A different identity may not overwrite or delete the record.
	if _, err := other.Post("protected", "c2", PostOptions{}); err == nil {
		t.Error("non-owner update succeeded")
	}
	if _, err := other.Delete("protected"); err == nil {
		t.Error("non-owner delete succeeded")
	}
	// The owner still can.
	if _, err := c.Post("protected", "c3", PostOptions{}); err != nil {
		t.Errorf("owner update failed: %v", err)
	}
}

func TestWatchStreamsCommits(t *testing.T) {
	c, _ := newClient(t)
	watch, stop := c.Watch()
	defer stop()
	keys := []string{"w1", "w2", "w3"}
	for _, k := range keys {
		if _, err := c.Post(k, "cs", PostOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	timeout := time.After(5 * time.Second)
	for len(got) < len(keys) {
		select {
		case ev, ok := <-watch:
			if !ok {
				t.Fatal("watch closed early")
			}
			if ev.TxID == "" || ev.Key == "" {
				t.Errorf("incomplete event %+v", ev)
			}
			got[ev.Key] = true
		case <-timeout:
			t.Fatalf("saw %d/%d events", len(got), len(keys))
		}
	}
	for _, k := range keys {
		if !got[k] {
			t.Errorf("missing event for %q", k)
		}
	}
}

// BenchmarkLineageReadsRealClock is the profiling handle on the provenance
// read path: the twenty point/lineage reads and the by-type rich query of
// benchmark/'s lineage_mixed workload, against a DAG of 16 chains of 64 items
// (item i derived from i-1 and i-2, the last item of each chain rewritten 16
// more times) committed through the normal flow on four peers with
// one-transaction blocks and device.NopClock — reachable by `go test
// -cpuprofile/-memprofile` (`make profile-lineage`). It exists to show where
// time and bytes go. Gains are judged by benchmark/ (BENCHMARK.json), never
// by this number.
func BenchmarkLineageReadsRealClock(b *testing.B) {
	const chains, length, versions, types = 16, 64, 16, 8
	c := newClientWith(b, nil)
	key := func(chain, i int) string { return fmt.Sprintf("d-%02d-%02d", chain, i) }
	checksum := func(chain, i, v int) string { return fmt.Sprintf("cs-%02d-%02d-%02d", chain, i, v) }
	for chain := 0; chain < chains; chain++ {
		for n := 0; n < length+versions; n++ {
			i, v := min(n, length-1), max(0, n-length+1)
			var parents []string
			for _, j := range []int{i - 1, i - 2} {
				if j >= 0 {
					parents = append(parents, key(chain, j))
				}
			}
			if _, err := c.Post(key(chain, i), checksum(chain, i, v), PostOptions{
				Parents: parents, Meta: map[string]string{"type": fmt.Sprintf("t%d", i%types)},
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	reads := func() {
		for k := 0; k < 8; k++ {
			want := key(rng.Intn(chains), rng.Intn(length))
			if rec, err := c.Get(want); err != nil || rec.Key != want {
				b.Fatalf("Get(%s) = %+v, %v", want, rec, err)
			}
		}
		for k := 0; k < 4; k++ {
			chain, i := rng.Intn(chains), rng.Intn(length-1)
			if rec, err := c.GetByChecksum(checksum(chain, i, 0)); err != nil || rec.Key != key(chain, i) {
				b.Fatalf("GetByChecksum = %+v, %v", rec, err)
			}
		}
		for k := 0; k < 4; k++ {
			if hist, err := c.GetKeyHistory(key(rng.Intn(chains), length-1)); err != nil || len(hist) != versions+1 {
				b.Fatalf("GetKeyHistory = %d versions, %v", len(hist), err)
			}
		}
		for k := 0; k < 2; k++ {
			if recs, err := c.GetLineage(key(rng.Intn(chains), length-1)); err != nil || len(recs) != length {
				b.Fatalf("GetLineage = %d records, %v", len(recs), err)
			}
		}
		for k := 0; k < 2; k++ {
			i := 40 + rng.Intn(20)
			if recs, err := c.GetDescendants(key(rng.Intn(chains), i)); err != nil || len(recs) != length-1-i {
				b.Fatalf("GetDescendants = %d records, %v", len(recs), err)
			}
		}
		typ := fmt.Sprintf("t%d", rng.Intn(types))
		if recs, err := c.GetByType(typ); err != nil || len(recs) != chains*length/types {
			b.Fatalf("GetByType(%s) = %d records, %v", typ, len(recs), err)
		}
	}
	reads() // warm: chaincode, identity caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reads()
	}
}

// A watcher that is stopped — after reading, or after being abandoned with
// its forwarder parked in a send nobody receives — must leave no goroutine
// behind, with commits in flight throughout. (At 507cff6 Watch had no stop
// and five abandoned watchers left five goroutines parked even after every
// peer had stopped.)
func TestWatchStopLeavesNoGoroutine(t *testing.T) {
	base, cursors := leaktest.Count(leaktest.Watch), leaktest.Count(leaktest.EventCursor)
	c, _ := newClient(t)
	const live, abandoned = 5, 5

	var stops []func()
	for i := 0; i < abandoned; i++ {
		_, stop := c.Watch() // never read: parks on the first event
		stops = append(stops, stop)
	}
	quit, posted := make(chan struct{}), make(chan error, 1)
	go func() { // commits in flight until every live watcher has come and gone
		for i := 0; ; i++ {
			select {
			case <-quit:
				posted <- nil
				return
			default:
			}
			if _, err := c.Post(fmt.Sprintf("leak-%d", i), "cs", PostOptions{}); err != nil {
				posted <- err
				return
			}
		}
	}()
	for i := 0; i < live; i++ {
		watch, stop := c.Watch()
		select {
		case <-watch:
		case <-time.After(10 * time.Second):
			t.Fatal("live watcher saw no event")
		}
		stop()
		stop() // idempotent
		for range watch {
		}
	}
	close(quit)
	if err := <-posted; err != nil {
		t.Fatal(err)
	}
	if got := leaktest.Count(leaktest.Watch) - base; got != abandoned {
		t.Errorf("%d Watch goroutines while %d watchers are abandoned and unstopped", got, abandoned)
	}
	for _, stop := range stops {
		stop()
	}
	leaktest.Settle(t, base, leaktest.Watch)
	leaktest.Settle(t, cursors, leaktest.EventCursor)
}
