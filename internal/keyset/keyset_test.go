package keyset

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// reference is the set a Set must equal: a plain map.
type reference map[string]bool

func (r reference) sorted() []string {
	out := make([]string, 0, len(r))
	for k := range r {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// from returns the keys of the sorted slice keys that are >= start.
func from(keys []string, start string) []string {
	return keys[sort.SearchStrings(keys, start):]
}

// drain collects what remains of it.
func drain(it Iter) []string {
	var out []string
	for {
		k, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, k)
	}
}

// heldVersion is a version of the set pinned beside a sorted copy of the
// reference, with an iterator opened — and partly drained — at the same
// moment. It is kept across folds and checked afterwards: whatever the
// writer did in between, the version and its open iterator still hold the
// keys they were taken with.
type heldVersion struct {
	set            *Set
	want           []string
	start          string
	it             Iter
	got            []string
	until          int  // step at which the version is checked
	folds, compact bool // what the set did while the version was held
}

func holdVersion(r *rand.Rand, s *Set, ref reference, step int) *heldVersion {
	v := &heldVersion{set: s, want: ref.sorted(), until: step + 1 + r.Intn(120)}
	if r.Intn(4) != 0 {
		v.start = fmt.Sprintf("k%04d", r.Intn(1500))
	}
	v.it = s.Seek(v.start)
	for i, n := 0, r.Intn(5); i < n; i++ { // leave the cursor mid-range
		if k, ok := v.it.Next(); ok {
			v.got = append(v.got, k)
		}
	}
	return v
}

func (v *heldVersion) check(t *testing.T) {
	t.Helper()
	if v.set.Len() != len(v.want) {
		t.Fatalf("held version: Len %d, reference %d", v.set.Len(), len(v.want))
	}
	if got := drain(v.set.Seek("")); !reflect.DeepEqual(got, v.want) && len(got)+len(v.want) > 0 {
		t.Fatalf("held version yields %d keys, reference %d", len(got), len(v.want))
	}
	got, want := append(v.got, drain(v.it)...), from(v.want, v.start)
	if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("held iterator from %q: %d keys, reference %d", v.start, len(got), len(want))
	}
}

// TestPropertyIndexFoldBoundaries drives the set and a map reference with
// add/delete/re-add batches of 1 to 200 changes, long enough for the set to
// fold its recent run into the delta hundreds of times and compact the delta
// into the base several times. Len is compared after every apply, ordered
// iteration at every fold, and versions with open iterators are held across
// the folds and checked afterwards. A concurrent reader walks the newest
// version throughout (the -race half of the test).
func TestPropertyIndexFoldBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(20260928))
	ref := reference{}
	var newest atomic.Pointer[Set]
	newest.Store(New(nil))

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
			s := newest.Load()
			n, prev := 0, ""
			for it := s.Seek(""); ; n++ {
				k, ok := it.Next()
				if !ok {
					break
				}
				if n > 0 && k <= prev {
					t.Errorf("concurrent walk: %q after %q", k, prev)
				}
				prev = k
			}
			if n != s.Len() {
				t.Errorf("concurrent walk: %d keys, Len %d", n, s.Len())
			}
		}
	}()
	defer reader.Wait()
	defer close(stop)

	var held []*heldVersion
	folds, compactions, heldOverFold, heldOverCompaction := 0, 0, 0, 0
	for step := 1; step <= 1500; step++ {
		size := 1 + r.Intn(3) // mostly block-sized applies, so the recent run fills over many of them
		if r.Intn(6) == 0 {
			size = 1 + r.Intn(200)
		}
		before := newest.Load()
		if r.Intn(3) == 0 {
			held = append(held, holdVersion(r, before, ref, step))
		}
		touched := map[string]bool{}
		var changes []Change
		for j := 0; j < size; j++ {
			key := fmt.Sprintf("k%04d", r.Intn(1500))
			if touched[key] {
				continue // one change per key and apply
			}
			touched[key] = true
			switch del := r.Intn(3) == 0; {
			case del && ref[key]:
				delete(ref, key)
				changes = append(changes, Change{Key: key, Dead: true})
			case !del && !ref[key]:
				ref[key] = true
				changes = append(changes, Change{Key: key})
			}
		}
		after := before.Apply(changes)
		newest.Store(after)
		if after.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, reference %d", step, after.Len(), len(ref))
		}
		folded := len(after.recent) == 0 && after != before
		compacted := folded && len(after.delta) == 0
		if folded {
			folds++
			if got, want := drain(after.Seek("")), ref.sorted(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d, after a fold: %d keys, reference %d", step, len(got), len(want))
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
	if got, want := drain(newest.Load().Seek("")), ref.sorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final set: %d keys, reference %d", len(got), len(want))
	}
	t.Logf("%d folds of the recent run, %d compactions; %d versions held across a fold, %d across a compaction",
		folds, compactions, heldOverFold, heldOverCompaction)
	if folds < 30 || compactions < 10 || heldOverFold < 100 || heldOverCompaction < 100 {
		t.Errorf("the run did not cross enough boundaries to mean anything")
	}
}

// A key added, deleted and re-added inside one lifetime of the recent log —
// no fold in between, so the log holds it three times — is live, dead, live
// again to readers, and a version taken at each stage keeps seeing that
// stage.
func TestIndexAddDeleteReaddWithinRecentRun(t *testing.T) {
	var seed []Change
	for i := 0; i < 100; i++ {
		seed = append(seed, Change{Key: fmt.Sprintf("k%03d", i*2)})
	}
	s := New(nil).Apply(seed)
	const key = "k051"                  // absent so far, between two live keys
	stages := []bool{true, false, true} // live after the stage
	var versions []*Set
	for i, live := range stages {
		s = s.Apply([]Change{{Key: key, Dead: !live}})
		if len(s.recent) != 100+i+1 {
			t.Fatalf("stage %d: recent log holds %d entries, want %d (no fold)", i, len(s.recent), 100+i+1)
		}
		versions = append(versions, s)
	}
	for i, live := range stages {
		v := versions[i]
		var keys []string
		for it := v.Seek("k050"); ; {
			k, ok := it.Next()
			if !ok || k >= "k053" {
				break
			}
			keys = append(keys, k)
		}
		want, wantLen := []string{"k050", "k052"}, 100
		if live {
			want, wantLen = []string{"k050", key, "k052"}, 101
		}
		if !reflect.DeepEqual(keys, want) || v.Len() != wantLen {
			t.Errorf("stage %d: set holds %v (Len %d), want %v (Len %d)", i, keys, v.Len(), want, wantLen)
		}
	}
}
