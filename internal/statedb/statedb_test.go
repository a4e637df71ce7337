package statedb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	b := NewUpdateBatch()
	b.Put("k1", []byte("v1"), Version{1, 0})
	b.Put("k2", []byte("v2"), Version{1, 1})
	if err := s.ApplyUpdates(b, Version{1, 1}); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	vv, ok := s.Get("k1")
	if !ok || !bytes.Equal(vv.Value, []byte("v1")) {
		t.Errorf("Get(k1) = %v, %v", vv, ok)
	}
	if vv.Version != (Version{1, 0}) {
		t.Errorf("version = %v, want 1:0", vv.Version)
	}
	if _, ok := s.Get("absent"); ok {
		t.Error("Get(absent) ok = true")
	}
}

func TestDelete(t *testing.T) {
	s := New()
	b := NewUpdateBatch()
	b.Put("k", []byte("v"), Version{1, 0})
	if err := s.ApplyUpdates(b, Version{1, 0}); err != nil {
		t.Fatal(err)
	}
	b2 := NewUpdateBatch()
	b2.Delete("k", Version{2, 0})
	if err := s.ApplyUpdates(b2, Version{2, 0}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Error("key still present after delete")
	}
}

func TestCommitHeightMonotonic(t *testing.T) {
	s := New()
	if err := s.ApplyUpdates(NewUpdateBatch(), Version{5, 0}); err != nil {
		t.Fatal(err)
	}
	err := s.ApplyUpdates(NewUpdateBatch(), Version{4, 9})
	if !errors.Is(err, ErrStaleCommitHeight) {
		t.Fatalf("stale commit error = %v, want ErrStaleCommitHeight", err)
	}
	err = s.ApplyUpdates(NewUpdateBatch(), Version{5, 0})
	if !errors.Is(err, ErrStaleCommitHeight) {
		t.Fatalf("equal-height commit error = %v, want ErrStaleCommitHeight", err)
	}
	if got := s.Height(); got != (Version{5, 0}) {
		t.Errorf("Height = %v, want 5:0", got)
	}
}

func TestVersionCompare(t *testing.T) {
	tests := []struct {
		a, b Version
		want int
	}{
		{Version{1, 0}, Version{1, 0}, 0},
		{Version{1, 0}, Version{1, 1}, -1},
		{Version{1, 5}, Version{1, 1}, 1},
		{Version{1, 9}, Version{2, 0}, -1},
		{Version{3, 0}, Version{2, 9}, 1},
	}
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestGetRange(t *testing.T) {
	s := New()
	b := NewUpdateBatch()
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		b.Put(k, []byte(k), Version{1, 0})
	}
	// Composite keys must not appear in plain range scans.
	ck, err := CreateCompositeKey("typ", []string{"b2"})
	if err != nil {
		t.Fatal(err)
	}
	b.Put(ck, []byte("composite"), Version{1, 0})
	if err := s.ApplyUpdates(b, Version{1, 0}); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		start, end string
		want       []string
	}{
		{"b", "d", []string{"b", "c"}},
		{"", "", []string{"a", "b", "c", "d", "e"}},
		{"c", "", []string{"c", "d", "e"}},
		{"x", "z", nil},
	}
	for _, tt := range tests {
		got := Collect(s.GetRange(tt.start, tt.end))
		keys := make([]string, len(got))
		for i, kv := range got {
			keys[i] = kv.Key
		}
		if len(keys) == 0 {
			keys = nil
		}
		if !reflect.DeepEqual(keys, tt.want) {
			t.Errorf("GetRange(%q,%q) = %v, want %v", tt.start, tt.end, keys, tt.want)
		}
	}
}

func TestCompositeKeyRoundTrip(t *testing.T) {
	key, err := CreateCompositeKey("lineage", []string{"parent", "child"})
	if err != nil {
		t.Fatalf("CreateCompositeKey: %v", err)
	}
	typ, attrs, err := SplitCompositeKey(key)
	if err != nil {
		t.Fatalf("SplitCompositeKey: %v", err)
	}
	if typ != "lineage" || !reflect.DeepEqual(attrs, []string{"parent", "child"}) {
		t.Errorf("split = %q %v", typ, attrs)
	}
}

func TestCompositeKeyErrors(t *testing.T) {
	if _, err := CreateCompositeKey("", nil); err == nil {
		t.Error("empty object type accepted")
	}
	if _, err := CreateCompositeKey("a\x00b", nil); err == nil {
		t.Error("object type with U+0000 accepted")
	}
	if _, err := CreateCompositeKey("t", []string{"a\x00"}); err == nil {
		t.Error("attribute with U+0000 accepted")
	}
	if _, _, err := SplitCompositeKey("plain"); err == nil {
		t.Error("SplitCompositeKey accepted plain key")
	}
}

func TestPartialCompositeKeyQuery(t *testing.T) {
	s := New()
	b := NewUpdateBatch()
	mk := func(attrs ...string) string {
		k, err := CreateCompositeKey("edge", attrs)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	b.Put(mk("p1", "c1"), []byte("1"), Version{1, 0})
	b.Put(mk("p1", "c2"), []byte("2"), Version{1, 1})
	b.Put(mk("p2", "c3"), []byte("3"), Version{1, 2})
	if err := s.ApplyUpdates(b, Version{1, 2}); err != nil {
		t.Fatal(err)
	}

	it, err := s.GetByPartialCompositeKey("edge", []string{"p1"})
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(it)
	if len(got) != 2 {
		t.Fatalf("partial query returned %d entries, want 2", len(got))
	}
	allIt, err := s.GetByPartialCompositeKey("edge", nil)
	if err != nil {
		t.Fatal(err)
	}
	all := Collect(allIt)
	if len(all) != 3 {
		t.Fatalf("full prefix query returned %d entries, want 3", len(all))
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := New()
	b := NewUpdateBatch()
	b.Put("k", []byte("v"), Version{3, 1})
	if err := s.ApplyUpdates(b, Version{3, 1}); err != nil {
		t.Fatal(err)
	}
	snap := s.Export()
	// Mutating the exported copy must not affect the store.
	snap["k"].Value[0] = 'X'
	if vv, _ := s.Get("k"); vv.Value[0] != 'v' {
		t.Error("export aliases store data")
	}

	s2 := New()
	s2.Restore(s.Export(), s.Height())
	if vv, ok := s2.Get("k"); !ok || !bytes.Equal(vv.Value, []byte("v")) {
		t.Errorf("restored Get(k) = %v, %v", vv, ok)
	}
	if s2.Height() != (Version{3, 1}) {
		t.Errorf("restored height = %v", s2.Height())
	}
}

func TestBatchKeysSorted(t *testing.T) {
	b := NewUpdateBatch()
	for _, k := range []string{"z", "a", "m"} {
		b.Put(k, nil, Version{1, 0})
	}
	if got := b.Keys(); !sort.StringsAreSorted(got) {
		t.Errorf("Keys() = %v, want sorted", got)
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3", b.Len())
	}
}

// Property: last-writer-wins — after applying a sequence of batches with
// increasing heights, each key holds the value of the highest-version write.
func TestQuickLastWriterWins(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		want := map[string]string{}
		ops := int(nOps%64) + 1
		for i := 0; i < ops; i++ {
			b := NewUpdateBatch()
			ver := Version{BlockNum: uint64(i + 1)}
			nw := rng.Intn(5) + 1
			for j := 0; j < nw; j++ {
				key := fmt.Sprintf("k%d", rng.Intn(10))
				if rng.Intn(4) == 0 {
					b.Delete(key, ver)
					delete(want, key)
				} else {
					val := fmt.Sprintf("v%d-%d", i, j)
					b.Put(key, []byte(val), ver)
					want[key] = val
				}
			}
			if err := s.ApplyUpdates(b, ver); err != nil {
				return false
			}
		}
		for k, v := range want {
			vv, ok := s.Get(k)
			if !ok || string(vv.Value) != v {
				return false
			}
		}
		// No extra plain keys beyond those expected.
		return len(Collect(s.GetRange("", ""))) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: range scans return keys in strictly increasing order and respect
// bounds.
func TestQuickRangeOrdered(t *testing.T) {
	f := func(keys []string, start, end string) bool {
		s := New()
		b := NewUpdateBatch()
		for i, k := range keys {
			if k == "" {
				continue
			}
			b.Put(k, []byte("v"), Version{1, uint64(i)})
		}
		if err := s.ApplyUpdates(b, Version{1, uint64(len(keys) + 1)}); err != nil {
			return false
		}
		got := Collect(s.GetRange(start, end))
		for i, kv := range got {
			if kv.Key < start {
				return false
			}
			if end != "" && kv.Key >= end {
				return false
			}
			if i > 0 && got[i-1].Key >= kv.Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRestoreHeightSemantics(t *testing.T) {
	s := New()
	b := NewUpdateBatch()
	b.Put("k", []byte("v1"), Version{1, 0})
	if err := s.ApplyUpdates(b, Version{1, 1}); err != nil {
		t.Fatal(err)
	}

	snap := s.Export()
	restored := New()
	restored.Restore(snap, Version{7, 3})
	if got := restored.Height(); got != (Version{7, 3}) {
		t.Fatalf("restored height = %v, want 7:3", got)
	}
	// Heights at or below the restored height are stale: replaying an
	// already-reflected block after recovery must be rejected, not
	// double-applied.
	stale := NewUpdateBatch()
	stale.Put("k", []byte("v2"), Version{7, 0})
	if err := restored.ApplyUpdates(stale, Version{7, 3}); !errors.Is(err, ErrStaleCommitHeight) {
		t.Fatalf("apply at restored height: err = %v, want ErrStaleCommitHeight", err)
	}
	if err := restored.ApplyUpdates(stale, Version{6, 9}); !errors.Is(err, ErrStaleCommitHeight) {
		t.Fatalf("apply below restored height: err = %v, want ErrStaleCommitHeight", err)
	}
	if vv, _ := restored.Get("k"); string(vv.Value) != "v1" {
		t.Fatalf("stale apply mutated state: %q", vv.Value)
	}
	// Strictly above the restored height proceeds.
	next := NewUpdateBatch()
	next.Put("k", []byte("v3"), Version{8, 0})
	if err := restored.ApplyUpdates(next, Version{8, 1}); err != nil {
		t.Fatalf("apply above restored height: %v", err)
	}
	// Restore deep-copies: the snapshot stays untouched by later applies.
	if string(snap["k"].Value) != "v1" {
		t.Errorf("snapshot mutated: %q", snap["k"].Value)
	}
}

func TestVersionedValueJSONRoundtrip(t *testing.T) {
	s := New()
	b := NewUpdateBatch()
	b.Put("doc", []byte(`{"owner":"alice"}`), Version{3, 1})
	b.Put("empty", nil, Version{3, 2})
	if err := s.ApplyUpdates(b, Version{3, 2}); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(s.Export())
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]VersionedValue
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	restored := New()
	restored.Restore(snap, Version{3, 2})
	vv, ok := restored.Get("doc")
	if !ok || string(vv.Value) != `{"owner":"alice"}` || vv.Version != (Version{3, 1}) {
		t.Fatalf("doc after JSON roundtrip = %+v ok=%v", vv, ok)
	}
	if _, ok := restored.Get("empty"); !ok {
		t.Error("empty-valued key lost in JSON roundtrip")
	}
}

// A 1-key block must cost the same key-set maintenance whatever the size of
// the state: the mean heap churn of a 1-key ApplyUpdates stays under 4 KiB at
// 8 k, 50 k and 200 k live keys (a two-run index that re-merged its whole
// delta per apply measured 14.8 / 52.5 / 52.4 KiB here).
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
