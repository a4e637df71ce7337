package statedb

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// heldView is a snapshot of the store taken beside a frozen copy of
// the reference, with a range iterator and a partial-composite-key iterator
// opened — and partly drained — at the same moment. It is kept across index
// folds and checked afterwards: whatever the store did in between, the view
// and its open iterators still see the height they were taken at.
type heldView struct {
	sn, ref        Snapshot
	start, end     string
	typ            string
	attrs          []string
	rng, composite Iterator
	gotRng, gotCmp []KV
	until          int  // step at which the view is checked and released
	folds, compact bool // what the index did while the view was held
}

func holdView(t *testing.T, r *rand.Rand, store *Store, ref *ReferenceStore, step int) *heldView {
	t.Helper()
	v := &heldView{sn: store.Snapshot(), ref: ref.Snapshot(), until: step + 1 + r.Intn(120)}
	v.start, v.end = fmt.Sprintf("k%04d", r.Intn(1500)), fmt.Sprintf("k%04d", r.Intn(1500))
	if r.Intn(4) == 0 {
		v.start = ""
	}
	if r.Intn(4) == 0 || v.end < v.start {
		v.end = ""
	}
	v.typ = fmt.Sprintf("typ%d", r.Intn(3))
	if r.Intn(2) == 0 {
		v.attrs = []string{fmt.Sprintf("a%02d", r.Intn(20))}
	}
	v.rng = v.sn.GetRange(v.start, v.end)
	var err error
	if v.composite, err = v.sn.GetByPartialCompositeKey(v.typ, v.attrs); err != nil {
		t.Fatal(err)
	}
	for i, n := 0, r.Intn(5); i < n; i++ { // leave the cursors mid-range
		if kv, ok := v.rng.Next(); ok {
			v.gotRng = append(v.gotRng, kv)
		}
		if kv, ok := v.composite.Next(); ok {
			v.gotCmp = append(v.gotCmp, kv)
		}
	}
	return v
}

func (v *heldView) check(t *testing.T) {
	t.Helper()
	if v.sn.Height() != v.ref.Height() || v.sn.Len() != v.ref.Len() {
		t.Fatalf("held view: height %v len %d, reference %v len %d", v.sn.Height(), v.sn.Len(), v.ref.Height(), v.ref.Len())
	}
	if got, want := Collect(v.sn.All()), Collect(v.ref.All()); !reflect.DeepEqual(got, want) {
		t.Fatalf("held view at %v: All() yields %d entries, reference %d", v.sn.Height(), len(got), len(want))
	}
	gotRng := append(v.gotRng, Collect(v.rng)...)
	if want := Collect(v.ref.GetRange(v.start, v.end)); !reflect.DeepEqual(gotRng, want) && len(gotRng)+len(want) > 0 {
		t.Fatalf("held range [%q,%q) at %v: %v, reference %v", v.start, v.end, v.sn.Height(), keysOf(gotRng), keysOf(want))
	}
	wantIt, err := v.ref.GetByPartialCompositeKey(v.typ, v.attrs)
	if err != nil {
		t.Fatal(err)
	}
	gotCmp := append(v.gotCmp, Collect(v.composite)...)
	if want := Collect(wantIt); !reflect.DeepEqual(gotCmp, want) && len(gotCmp)+len(want) > 0 {
		t.Fatalf("held composite %s%v at %v: %v, reference %v", v.typ, v.attrs, v.sn.Height(), keysOf(gotCmp), keysOf(want))
	}
	v.sn.Release()
}

// TestPropertyIndexFoldBoundaries drives the store and the reference
// with add/delete/re-add batches of 1 to 200 writes, long enough for the key
// index to fold its recent run into the delta hundreds of times and compact
// the delta into the base several times. Len is compared after every batch,
// ordered iteration at every fold, and snapshots with open iterators are held
// across the folds and checked afterwards. A concurrent reader walks
// snapshots throughout (the -race half of the test).
func TestPropertyIndexFoldBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(20260928))
	store, ref := New(), NewReference()

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sn := store.Snapshot()
			n, prev := 0, ""
			for it := sn.All(); ; n++ {
				kv, ok := it.Next()
				if !ok {
					break
				}
				if kv.Key <= prev {
					t.Errorf("concurrent walk at %v: %q after %q", sn.Height(), kv.Key, prev)
				}
				prev = kv.Key
			}
			if n != sn.Len() {
				t.Errorf("concurrent walk at %v: %d keys, Len %d", sn.Height(), n, sn.Len())
			}
			sn.Release()
		}
	}()
	defer reader.Wait()
	defer close(stop)

	randomKey := func() string {
		if r.Intn(4) == 0 {
			k, _ := CreateCompositeKey(fmt.Sprintf("typ%d", r.Intn(3)),
				[]string{fmt.Sprintf("a%02d", r.Intn(20)), fmt.Sprintf("b%d", r.Intn(5))})
			return k
		}
		return fmt.Sprintf("k%04d", r.Intn(1500))
	}
	var held []*heldView
	folds, compactions, heldOverFold, heldOverCompaction := 0, 0, 0, 0
	for step := 1; step <= 1500; step++ {
		size := 1 + r.Intn(3) // mostly block-sized batches, so the recent run fills over many applies
		if r.Intn(6) == 0 {
			size = 1 + r.Intn(200)
		}
		b := NewUpdateBatch()
		for j := 0; j < size; j++ {
			ver := Version{BlockNum: uint64(step), TxNum: uint64(j)}
			if key := randomKey(); r.Intn(3) == 0 {
				b.Delete(key, ver)
			} else {
				b.Put(key, []byte(fmt.Sprintf("v%d.%d", step, j)), ver)
			}
		}
		if r.Intn(3) == 0 {
			held = append(held, holdView(t, r, store, ref, step))
		}
		before := store.index.Load()
		h := Version{BlockNum: uint64(step), TxNum: uint64(size)}
		if err := store.ApplyUpdates(b, h); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyUpdates(b, h); err != nil {
			t.Fatal(err)
		}
		if store.Len() != ref.Len() {
			t.Fatalf("step %d: Len = %d, reference %d", step, store.Len(), ref.Len())
		}
		after := store.index.Load()
		folded := len(after.recent) == 0 && after != before
		compacted := folded && len(after.delta) == 0
		if folded {
			folds++
			if got, want := Collect(store.GetRange("", "")), Collect(ref.GetRange("", "")); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d, after a fold: %d plain keys, reference %d", step, len(got), len(want))
			}
		}
		if compacted {
			compactions++
		}
		kept := held[:0]
		for _, v := range held {
			v.folds, v.compact = v.folds || folded, v.compact || compacted
			if step < v.until {
				kept = append(kept, v)
				continue
			}
			v.check(t)
			if v.folds {
				heldOverFold++
			}
			if v.compact {
				heldOverCompaction++
			}
		}
		held = kept
	}
	for _, v := range held {
		v.check(t)
	}
	if !reflect.DeepEqual(store.Export(), ref.Export()) {
		t.Fatal("final Export() differs from reference")
	}
	t.Logf("%d folds of the recent run, %d compactions; %d views held across a fold, %d across a compaction",
		folds, compactions, heldOverFold, heldOverCompaction)
	if folds < 30 || compactions < 10 || heldOverFold < 100 || heldOverCompaction < 100 {
		t.Errorf("the run did not cross enough boundaries to mean anything")
	}
}

// A key added, deleted and re-added inside one lifetime of the recent log —
// no fold in between, so the log holds it three times — is live, dead, live
// again to readers, and a snapshot taken at each stage keeps seeing that
// stage.
func TestIndexAddDeleteReaddWithinRecentRun(t *testing.T) {
	s := New()
	seed := NewUpdateBatch()
	for i := 0; i < 100; i++ {
		seed.Put(fmt.Sprintf("k%03d", i*2), []byte("v"), Version{BlockNum: 1, TxNum: uint64(i)})
	}
	if err := s.ApplyUpdates(seed, Version{BlockNum: 1, TxNum: 100}); err != nil {
		t.Fatal(err)
	}
	const key = "k051" // absent so far, between two live keys
	stages := []struct {
		put  bool
		live bool
	}{{true, true}, {false, false}, {true, true}}
	var snaps []Snapshot
	for i, st := range stages {
		b := NewUpdateBatch()
		ver := Version{BlockNum: uint64(i + 2)}
		if st.put {
			b.Put(key, []byte(fmt.Sprintf("v%d", i)), ver)
		} else {
			b.Delete(key, ver)
		}
		if err := s.ApplyUpdates(b, Version{BlockNum: uint64(i + 2), TxNum: 1}); err != nil {
			t.Fatal(err)
		}
		if ix := s.index.Load(); len(ix.recent) != 100+i+1 {
			t.Fatalf("stage %d: recent log holds %d entries, want %d (no fold)", i, len(ix.recent), 100+i+1)
		}
		snaps = append(snaps, s.Snapshot())
	}
	for i, st := range stages {
		sn := snaps[i]
		keys := keysOf(Collect(sn.GetRange("k050", "k053")))
		want := []string{"k050", "k052"}
		wantLen := 100
		if st.live {
			want, wantLen = []string{"k050", key, "k052"}, 101
		}
		if !reflect.DeepEqual(keys, want) || sn.Len() != wantLen {
			t.Errorf("stage %d: range sees %v (Len %d), want %v (Len %d)", i, keys, sn.Len(), want, wantLen)
		}
		// The index itself, not healed by the value lookup behind a range.
		var indexed []string
		for cur := sn.(*storeSnapshot).index.seek("k050"); ; {
			k, ok := cur.next()
			if !ok || k >= "k053" {
				break
			}
			indexed = append(indexed, k)
		}
		if !reflect.DeepEqual(indexed, want) {
			t.Errorf("stage %d: index holds %v, want %v", i, indexed, want)
		}
		sn.Release()
	}
}

// A 1-key block must cost the same index maintenance whatever the size of the
// state: the mean heap churn of a 1-key ApplyUpdates stays under 4 KiB at 8 k,
// 50 k and 200 k live keys (a two-run index that re-merged its whole delta
// per apply measured 14.8 / 52.5 / 52.4 KiB here).
func TestApplyAllocFlatInStateSize(t *testing.T) {
	const applies = 4096
	for _, keys := range []int{8_000, 50_000, 200_000} {
		s := New()
		seed := NewUpdateBatch()
		for i := 0; i < keys; i++ {
			seed.Put(fmt.Sprintf("seed-%07d", i), []byte("v"), Version{BlockNum: 1, TxNum: uint64(i)})
		}
		if err := s.ApplyUpdates(seed, Version{BlockNum: 1, TxNum: uint64(keys)}); err != nil {
			t.Fatal(err)
		}
		batches := make([]*UpdateBatch, applies)
		for i := range batches {
			batches[i] = NewUpdateBatch()
			batches[i].Put(fmt.Sprintf("item-%07d", i*7919%applies), []byte("v"), Version{BlockNum: uint64(i + 2)})
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i, b := range batches {
			if err := s.ApplyUpdates(b, Version{BlockNum: uint64(i + 2), TxNum: 1}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perApply := float64(after.TotalAlloc-before.TotalAlloc) / applies
		t.Logf("%d live keys: %.0f B per 1-key apply", keys, perApply)
		if perApply > 4096 {
			t.Errorf("%d live keys: %.0f B per 1-key apply, budget 4096", keys, perApply)
		}
		if got := s.Len(); got != keys+applies {
			t.Errorf("Len() = %d, want %d", got, keys+applies)
		}
	}
}
