package statedb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The Store must be observationally identical to the retained
// ReferenceStore for every read the system performs: point gets, plain
// range scans, composite-key queries, paginated iteration, and whole-state
// export. These tests drive both stores with the same random batch streams
// — eight seeds — and compare, pinning the key index and overlay snapshots
// to the plain-map semantics exactly as committer.NewSerial pins the
// pipelined committer.

// randomBatches builds n update batches over a smallish keyspace so
// overwrite, delete, delete-then-recreate, and composite keys all occur.
func randomBatches(rng *rand.Rand, n int) []*UpdateBatch {
	batches := make([]*UpdateBatch, n)
	for i := range batches {
		b := NewUpdateBatch()
		writes := rng.Intn(20) + 1
		for j := 0; j < writes; j++ {
			ver := Version{BlockNum: uint64(i + 1), TxNum: uint64(j)}
			var key string
			switch rng.Intn(4) {
			case 0: // composite key
				key, _ = CreateCompositeKey(
					fmt.Sprintf("typ%d", rng.Intn(3)),
					[]string{fmt.Sprintf("a%d", rng.Intn(8)), fmt.Sprintf("b%d", rng.Intn(4))})
			default:
				key = fmt.Sprintf("key-%03d", rng.Intn(120))
			}
			if rng.Intn(5) == 0 {
				b.Delete(key, ver)
			} else {
				b.Put(key, []byte(fmt.Sprintf("v-%d-%d-%d", i, j, rng.Intn(10))), ver)
			}
		}
		batches[i] = b
	}
	return batches
}

// applyBoth drives an identical batch stream into both stores.
func applyBoth(t *testing.T, store StateDB, ref *ReferenceStore, batches []*UpdateBatch) {
	t.Helper()
	for i, b := range batches {
		h := Version{BlockNum: uint64(i + 1), TxNum: uint64(b.Len())}
		if err := store.ApplyUpdates(b, h); err != nil {
			t.Fatalf("store apply %d: %v", i, err)
		}
		if err := ref.ApplyUpdates(b, h); err != nil {
			t.Fatalf("reference apply %d: %v", i, err)
		}
	}
}

func keysOf(kvs []KV) []string {
	out := make([]string, len(kvs))
	for i, kv := range kvs {
		out[i] = kv.Key
	}
	return out
}

// The subtests keep the shards=N names they had when the store was
// lock-striped N ways; each is now one random stream, seeded by N.
func TestPropertyShardedMatchesReference(t *testing.T) {
	for seed := 1; seed <= 8; seed++ {
		t.Run(fmt.Sprintf("shards=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed) * 7919))
			store := New()
			ref := NewReference()
			applyBoth(t, store, ref, randomBatches(rng, 40))

			// Whole-state export: identical maps (keys, values, versions).
			if !reflect.DeepEqual(store.Export(), ref.Export()) {
				t.Fatal("Export() differs from reference")
			}
			if store.Len() != ref.Len() {
				t.Fatalf("Len = %d, reference %d", store.Len(), ref.Len())
			}
			if store.Height() != ref.Height() {
				t.Fatalf("Height = %v, reference %v", store.Height(), ref.Height())
			}

			// Point reads over the whole key universe (incl. absent keys).
			for i := 0; i < 120; i++ {
				key := fmt.Sprintf("key-%03d", i)
				gv, gok := store.Get(key)
				wv, wok := ref.Get(key)
				if gok != wok || !reflect.DeepEqual(gv, wv) {
					t.Fatalf("Get(%q) = (%v,%v), reference (%v,%v)", key, gv, gok, wv, wok)
				}
			}

			// Range scans with random bounds, both orders of bound values.
			for i := 0; i < 50; i++ {
				a := fmt.Sprintf("key-%03d", rng.Intn(130))
				b := fmt.Sprintf("key-%03d", rng.Intn(130))
				if rng.Intn(5) == 0 {
					a = ""
				}
				if rng.Intn(5) == 0 {
					b = ""
				}
				got := Collect(store.GetRange(a, b))
				want := Collect(ref.GetRange(a, b))
				if !reflect.DeepEqual(keysOf(got), keysOf(want)) {
					t.Fatalf("GetRange(%q,%q) keys = %v, reference %v", a, b, keysOf(got), keysOf(want))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("GetRange(%q,%q) values differ from reference", a, b)
				}
			}

			// Composite-key queries at every prefix depth.
			for typ := 0; typ < 3; typ++ {
				for _, attrs := range [][]string{nil, {"a0"}, {"a1", "b0"}, {"a7", "b3"}} {
					gi, gerr := store.GetByPartialCompositeKey(fmt.Sprintf("typ%d", typ), attrs)
					wi, werr := ref.GetByPartialCompositeKey(fmt.Sprintf("typ%d", typ), attrs)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("composite err = %v, reference %v", gerr, werr)
					}
					if gerr != nil {
						continue
					}
					got, want := Collect(gi), Collect(wi)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("composite typ%d %v differs from reference", typ, attrs)
					}
				}
			}

			// Pagination: early-terminated iteration page by page must walk
			// the same sequence the reference materializes at once.
			want := Collect(ref.GetRange("", ""))
			var paged []KV
			cursor := ""
			for {
				it := store.GetRange(cursor, "")
				n := 0
				var last string
				for n < 7 {
					kv, ok := it.Next()
					if !ok {
						break
					}
					paged = append(paged, kv)
					last = kv.Key
					n++
				}
				it.Close() // early termination mid-range
				if n < 7 {
					break
				}
				cursor = last + "\x00" // resume strictly after the last key
			}
			if !reflect.DeepEqual(keysOf(paged), keysOf(want)) {
				t.Fatalf("paged walk = %v, reference %v", keysOf(paged), keysOf(want))
			}
		})
	}
}

// TestPropertyRestoreRoundTrip pins Export/Restore equivalence across
// implementations and seeds: a state exported from either store and
// restored into the other must answer identically.
func TestPropertyRestoreRoundTrip(t *testing.T) {
	for _, seed := range []int64{42, 43, 44} {
		rng := rand.New(rand.NewSource(seed))
		batches := randomBatches(rng, 25)
		ref := NewReference()
		src := New()
		applyBoth(t, src, ref, batches)

		restored := New()
		restored.Restore(ref.Export(), ref.Height())
		if !reflect.DeepEqual(restored.Export(), src.Export()) {
			t.Fatalf("seed %d: restored store differs", seed)
		}
		if got, want := keysOf(Collect(restored.GetRange("", ""))), keysOf(Collect(src.GetRange("", ""))); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: restored range scan = %v, want %v", seed, got, want)
		}
		backRef := NewReference()
		backRef.Restore(src.Export(), src.Height())
		if !reflect.DeepEqual(backRef.Export(), src.Export()) {
			t.Fatalf("seed %d: reference restored from the store's export differs", seed)
		}
	}
}

// TestPropertyCompactionChurn hammers the key index's delta/compaction
// machinery: enough writes and deletes to force multiple compactions, with
// delete-then-recreate cycles, then checks ordered iteration one final
// time against the reference.
func TestPropertyCompactionChurn(t *testing.T) {
	store := New()
	ref := NewReference()
	block := uint64(1)
	apply := func(b *UpdateBatch, n int) {
		h := Version{BlockNum: block, TxNum: uint64(n)}
		if err := store.ApplyUpdates(b, h); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyUpdates(b, h); err != nil {
			t.Fatal(err)
		}
		block++
	}
	// Bulk insert well past the compaction floor.
	b := NewUpdateBatch()
	for i := 0; i < 3000; i++ {
		b.Put(fmt.Sprintf("k%05d", i), []byte("v"), Version{BlockNum: block})
	}
	apply(b, 3000)
	// Delete every third key, recreate every ninth.
	b = NewUpdateBatch()
	for i := 0; i < 3000; i += 3 {
		b.Delete(fmt.Sprintf("k%05d", i), Version{BlockNum: block})
	}
	apply(b, 1000)
	b = NewUpdateBatch()
	for i := 0; i < 3000; i += 9 {
		b.Put(fmt.Sprintf("k%05d", i), []byte("back"), Version{BlockNum: block})
	}
	apply(b, 334)
	// Churn in small batches to exercise delta merging between compactions.
	rng := rand.New(rand.NewSource(7))
	for r := 0; r < 50; r++ {
		b = NewUpdateBatch()
		for j := 0; j < 40; j++ {
			k := fmt.Sprintf("k%05d", rng.Intn(3500))
			if rng.Intn(3) == 0 {
				b.Delete(k, Version{BlockNum: block})
			} else {
				b.Put(k, []byte(fmt.Sprintf("r%d", r)), Version{BlockNum: block})
			}
		}
		apply(b, 40)
	}
	got := Collect(store.GetRange("", ""))
	want := Collect(ref.GetRange("", ""))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after churn: %d keys vs reference %d", len(got), len(want))
	}
	if store.Len() != ref.Len() {
		t.Fatalf("Len = %d, reference %d", store.Len(), ref.Len())
	}
}
