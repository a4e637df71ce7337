package statedb

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/richquery"
)

func mustApply(t *testing.T, s StateDB, block uint64, puts map[string]string, deletes ...string) {
	t.Helper()
	b := NewUpdateBatch()
	for k, v := range puts {
		b.Put(k, []byte(v), Version{BlockNum: block})
	}
	for _, k := range deletes {
		b.Delete(k, Version{BlockNum: block})
	}
	if err := s.ApplyUpdates(b, Version{BlockNum: block, TxNum: uint64(b.Len())}); err != nil {
		t.Fatal(err)
	}
}

// A snapshot must keep answering exactly as of its boundary while the
// store moves on: overwrites, deletes, and re-creations after the snapshot
// are all invisible to it, and its iterators neither gain nor lose keys.
func TestSnapshotIsolation(t *testing.T) {
	s := New()
	mustApply(t, s, 1, map[string]string{"a": "1", "b": "2", "c": "3"})
	snap := s.Snapshot()
	defer snap.Release()
	if snap.Height() != (Version{BlockNum: 1, TxNum: 3}) {
		t.Fatalf("snapshot height = %v", snap.Height())
	}

	mustApply(t, s, 2, map[string]string{"a": "new", "d": "4"}, "b")
	mustApply(t, s, 3, map[string]string{"b": "recreated"})

	// Live store sees the new world.
	if vv, _ := s.Get("a"); string(vv.Value) != "new" {
		t.Fatalf("live a = %q", vv.Value)
	}
	// Snapshot sees the old one.
	for key, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		vv, ok := snap.Get(key)
		if !ok || string(vv.Value) != want {
			t.Fatalf("snapshot %q = (%q,%v), want %q", key, vv.Value, ok, want)
		}
	}
	if _, ok := snap.Get("d"); ok {
		t.Fatal("snapshot sees key created after the boundary")
	}
	got := keysOf(Collect(snap.GetRange("", "")))
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("snapshot range = %v", got)
	}
	if n := len(Collect(snap.All())); n != 3 {
		t.Fatalf("snapshot holds %d keys, want 3", n)
	}
	// Live iterators see the new world.
	live := keysOf(Collect(s.GetRange("", "")))
	if !reflect.DeepEqual(live, []string{"a", "b", "c", "d"}) {
		t.Fatalf("live range = %v", live)
	}
}

// Reads through an outstanding snapshot must return the boundary values
// even while a large ApplyUpdates is concurrently rewriting every key —
// the copy-on-write overlay, not blocking, is what guarantees it.
func TestSnapshotConsistentDuringApply(t *testing.T) {
	const n = 20000
	s := New()
	puts := make(map[string]string, n)
	for i := 0; i < n; i++ {
		puts[fmt.Sprintf("k%05d", i)] = "old"
	}
	mustApply(t, s, 1, puts)

	snap := s.Snapshot()
	defer snap.Release()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for block := uint64(2); block < 6; block++ {
			b := NewUpdateBatch()
			for i := 0; i < n; i++ {
				b.Put(fmt.Sprintf("k%05d", i), []byte("new"), Version{BlockNum: block})
			}
			if err := s.ApplyUpdates(b, Version{BlockNum: block, TxNum: n}); err != nil {
				panic(err)
			}
		}
	}()
	errCh := make(chan string, 1)
	go func() {
		defer wg.Done()
		for round := 0; round < 4; round++ {
			it := snap.GetRange("", "")
			count := 0
			for {
				kv, ok := it.Next()
				if !ok {
					break
				}
				count++
				if !bytes.Equal(kv.Value, []byte("old")) {
					select {
					case errCh <- fmt.Sprintf("snapshot read %q = %q mid-apply", kv.Key, kv.Value):
					default:
					}
					return
				}
			}
			if count != n {
				select {
				case errCh <- fmt.Sprintf("snapshot scan saw %d keys, want %d", count, n):
				default:
				}
				return
			}
		}
	}()
	wg.Wait()
	select {
	case msg := <-errCh:
		t.Fatal(msg)
	default:
	}
	if vv, _ := s.Get("k00000"); string(vv.Value) != "new" {
		t.Fatalf("live value = %q after applies", vv.Value)
	}
}

// Iterators terminate early: a bounded scan over a huge keyspace must not
// walk past its bound (observable through the cursor's progress).
func TestIteratorEarlyTermination(t *testing.T) {
	s := New()
	puts := make(map[string]string, 10000)
	for i := 0; i < 10000; i++ {
		puts[fmt.Sprintf("k%05d", i)] = "v"
	}
	mustApply(t, s, 1, puts)
	it := s.GetRange("k00100", "k00110")
	got := keysOf(Collect(it))
	want := make([]string, 0, 10)
	for i := 100; i < 110; i++ {
		want = append(want, fmt.Sprintf("k%05d", i))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bounded scan = %v", got)
	}
	// Close mid-scan releases the backing snapshot; further Next is done.
	it2 := s.GetRange("", "")
	if _, ok := it2.Next(); !ok {
		t.Fatal("first Next failed")
	}
	it2.Close()
	if _, ok := it2.Next(); ok {
		t.Fatal("Next after Close yielded")
	}
}

// Restore detaches outstanding snapshots instead of mixing two worlds.
func TestRestoreDetachesSnapshots(t *testing.T) {
	s := New()
	mustApply(t, s, 1, map[string]string{"a": "1"})
	snap := s.Snapshot()
	defer snap.Release()
	s.Restore([]KV{{Key: "z", Value: []byte("9")}}, Version{BlockNum: 9})
	if _, ok := snap.Get("a"); ok {
		t.Fatal("detached snapshot still answers")
	}
	if kvs := Collect(snap.GetRange("", "")); len(kvs) != 0 {
		t.Fatalf("detached snapshot iterated %d keys", len(kvs))
	}
	if vv, ok := s.Get("z"); !ok || string(vv.Value) != "9" {
		t.Fatalf("restored store Get(z) = %q,%v", vv.Value, ok)
	}
}

// Snapshots see a batch either entirely or not at all — never a prefix —
// and a released snapshot stops costing the applier anything.
func TestSnapshotAtBatchBoundary(t *testing.T) {
	s := New()
	mustApply(t, s, 1, map[string]string{"x": "1", "y": "1"})
	snap := s.Snapshot()
	mustApply(t, s, 2, map[string]string{"x": "2", "y": "2"})
	xv, _ := snap.Get("x")
	yv, _ := snap.Get("y")
	if string(xv.Value) != string(yv.Value) {
		t.Fatalf("sheared read: x=%q y=%q", xv.Value, yv.Value)
	}
	snap.Release()
	// After release, applies no longer preserve; snapshot reads are
	// undefined, but the store itself must keep working.
	mustApply(t, s, 3, map[string]string{"x": "3"})
	if vv, _ := s.Get("x"); string(vv.Value) != "3" {
		t.Fatalf("live x = %q", vv.Value)
	}
}

// A snapshot is a simulation's whole read surface: point reads and rich
// queries alike answer at its boundary, index-served or by scan.
func TestViewReadsAndRichQueries(t *testing.T) {
	ixs, err := NewIndexed(richquery.IndexDef{Name: "by-owner", Field: "owner"})
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, ixs, 1, map[string]string{
		"d1": `{"owner":"alice","n":1}`,
		"d2": `{"owner":"bob","n":2}`,
	})
	view := ixs.snapshot()
	defer view.Release()
	mustApply(t, ixs, 2, map[string]string{"d1": `{"owner":"carol","n":9}`})

	// Snapshot semantics for point reads.
	if vv, _ := view.Get("d1"); string(vv.Value) != `{"owner":"alice","n":1}` {
		t.Fatalf("view d1 = %q", vv.Value)
	}
	// Rich queries too (index-served), phantom-validated at commit.
	res, err := view.ExecuteQuery(mustQuery(t, `{"selector":{"owner":"alice"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KVs) != 1 || res.KVs[0].Key != "d1" {
		t.Fatalf("view rich query = %+v", res.KVs)
	}

	// Plain store: the view's rich query scans its own snapshot.
	plain := New()
	mustApply(t, plain, 1, map[string]string{"p1": `{"owner":"dave"}`})
	pv := plain.snapshot()
	defer pv.Release()
	mustApply(t, plain, 2, map[string]string{"p1": `{"owner":"erin"}`})
	res, err = pv.ExecuteQuery(mustQuery(t, `{"selector":{"owner":"dave"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KVs) != 1 || res.KVs[0].Key != "p1" {
		t.Fatalf("plain view query = %+v (want the snapshot's doc)", res.KVs)
	}
}

// The per-operation state metrics must populate once attached: latency
// histograms for get/scan/apply and the lock-contention counter.
func TestStateMetricsSmoke(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New()
	s.SetMetrics(reg)
	mustApply(t, s, 1, map[string]string{"a": "1", "b": "2"})
	s.Get("a")
	Collect(s.GetRange("", ""))

	for _, name := range []string{metrics.StateGet, metrics.StateScan, metrics.StateApply} {
		if reg.Histogram(name).Summary().Count == 0 {
			t.Errorf("histogram %s never observed", name)
		}
	}
	if got := reg.Snapshot()[metrics.StateLockContention]; got < 0 {
		t.Errorf("contention counter = %d", got)
	}
	// Contention is actually counted: hold the store's write lock and Get.
	done := make(chan struct{})
	s.mu.Lock()
	go func() {
		s.Get("a") // blocks until unlock; TryRLock fails -> contention
		close(done)
	}()
	for reg.Snapshot()[metrics.StateLockContention] == 0 {
		time.Sleep(time.Millisecond) // until the goroutine reaches TryRLock
	}
	s.mu.Unlock()
	<-done
	if got := reg.Snapshot()[metrics.StateLockContention]; got == 0 {
		t.Error("contention never counted")
	}
}
