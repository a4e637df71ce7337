// Package keyset is the tree's one ordered structure: a copy-on-write set
// of strings whose versions are immutable once published. The state store
// keeps every live key in one, and each rich-query index keeps its entries
// in another, so a reader that pins a version — a snapshot, an open
// iterator — iterates it without any lock while a writer publishes
// successors.
package keyset

import (
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Set is one version of an ordered set of strings, held in three runs,
// oldest to newest:
//
//   - base: the bulk of the set, sorted, rebuilt only at compaction;
//   - delta: additions and deletions (tombstones) since the last compaction,
//     sorted, rebuilt only when the recent log is folded into it;
//   - recent: the changes of the last few applies in arrival order, at most
//     recentLen of them. An apply appends its changes and copies nothing; the
//     first reader of a version sorts its log, once (recentRun).
//
// Nothing a published version can see is mutated afterwards — an apply
// appends to the log beyond the length older versions hold — so a reader
// that grabbed a *Set can iterate it without any lock while the writer
// publishes successors. Iteration is a three-way merge in which a newer
// run's entry shadows an older run's entry for the same key and tombstones
// are skipped. Seeking is three binary searches, which is what makes range
// scans O(log n + result).
//
// An apply therefore pays for what it changes, whatever the size of the
// set: the delta is copied once per recentLen changes and the base once per
// delta fold limit, so both amortize to a small constant per changed key.
type Set struct {
	*runs
	recent []Change
	live   int // total live keys (the runs merged, minus tombstones)

	// sorted memoizes recentRun. Racing readers compute the same value.
	sorted atomic.Pointer[[]Change]
}

// runs are a set's sorted runs, shared by every version between two folds:
// an apply that does not fold allocates only the small Set header.
type runs struct {
	base  []string
	delta []Change
}

// Change is one change to a set: a key added, or a tombstone (Dead) for a
// key deleted.
type Change struct {
	Key  string
	Dead bool
}

// recentLen is the length at which the recent log is folded into the delta:
// the delta is copied once per this many changes, and a reader sorts at most
// this many entries. compactionFloor is the minimum delta length before
// compaction is considered; below it, merge-iteration over the delta is
// cheaper than rebuilding the base. maxDeltaLen caps the delta absolutely,
// so a fold copies a bounded number of entries however large the base
// grows, and full compactions amortize to O(base/maxDeltaLen) per changed
// key.
const (
	recentLen       = 256
	compactionFloor = 512
	maxDeltaLen     = 16384
)

// New returns the set holding keys, which must be sorted and distinct. The
// set takes ownership of the slice.
func New(keys []string) *Set { return &Set{runs: &runs{base: keys}, live: len(keys)} }

// Len returns the number of keys in the set.
func (s *Set) Len() int { return s.live }

// Apply publishes the set with changes applied: each non-Dead change adds a
// key absent from s, each Dead one deletes a key s holds, and no key appears
// twice. Only the newest version may be applied to, by one writer at a time
// (the owner's write lock): the successor's log shares the predecessor's
// backing array. changes is copied, not retained.
func (s *Set) Apply(changes []Change) *Set {
	if len(changes) == 0 {
		return s
	}
	out := &Set{runs: s.runs, recent: append(s.recent, changes...), live: s.live}
	for _, c := range changes {
		if c.Dead {
			out.live--
		} else {
			out.live++
		}
	}
	if len(out.recent) < recentLen {
		return out
	}
	out.runs = &runs{base: s.base, delta: mergeRuns(s.delta, sortRun(out.recent))}
	out.recent = nil
	limit := len(out.base) / 8
	if limit > maxDeltaLen {
		limit = maxDeltaLen
	}
	if limit < compactionFloor {
		limit = compactionFloor
	}
	if len(out.delta) >= limit {
		out.base, out.delta = compact(out.base, out.delta, out.live), nil
	}
	return out
}

// recentRun returns the recent log as a sorted run, one entry per key.
func (s *Set) recentRun() []Change {
	if len(s.recent) == 0 {
		return nil
	}
	if run := s.sorted.Load(); run != nil {
		return *run
	}
	run := sortRun(s.recent)
	s.sorted.Store(&run)
	return run
}

// sortRun turns a log of changes in arrival order into a sorted run; of a
// key changed more than once, the newest entry survives.
func sortRun(log []Change) []Change {
	run := slices.Clone(log)
	slices.SortStableFunc(run, func(a, b Change) int { return strings.Compare(a.Key, b.Key) })
	out := run[:0]
	for i, c := range run {
		if i+1 == len(run) || run[i+1].Key != c.Key {
			out = append(out, c)
		}
	}
	return out
}

// mergeRuns merges two sorted runs into a fresh one; on equal keys the newer
// run's entry wins. Tombstones are kept: they still shadow older runs. An
// empty side returns the other side itself — runs are immutable, so sharing
// is safe.
func mergeRuns(older, newer []Change) []Change {
	if len(older) == 0 {
		return newer
	}
	if len(newer) == 0 {
		return older
	}
	out := make([]Change, 0, len(older)+len(newer))
	oi, ni := 0, 0
	for oi < len(older) && ni < len(newer) {
		switch c := strings.Compare(older[oi].Key, newer[ni].Key); {
		case c < 0:
			out = append(out, older[oi])
			oi++
		case c > 0:
			out = append(out, newer[ni])
			ni++
		default:
			out = append(out, newer[ni])
			oi++
			ni++
		}
	}
	out = append(out, older[oi:]...)
	return append(out, newer[ni:]...)
}

// compact folds the delta into a fresh base of the given live length.
func compact(base []string, delta []Change, live int) []string {
	out := make([]string, 0, live)
	bi := 0
	for _, d := range delta {
		for bi < len(base) && base[bi] < d.Key {
			out = append(out, base[bi])
			bi++
		}
		if bi < len(base) && base[bi] == d.Key {
			bi++
		}
		if !d.Dead {
			out = append(out, d.Key)
		}
	}
	return append(out, base[bi:]...)
}

// Iter is a cursor over one version of a set, positioned by Seek. It holds
// only immutable slices, so it stays valid however far the set advances.
type Iter struct {
	base []string
	runs [2][]Change // delta, recent: the remaining entries, older first
}

// Seek positions a cursor at the first key >= start.
func (s *Set) Seek(start string) Iter {
	from := func(run []Change) []Change {
		return run[sort.Search(len(run), func(i int) bool { return run[i].Key >= start }):]
	}
	return Iter{
		base: s.base[sort.SearchStrings(s.base, start):],
		runs: [2][]Change{from(s.delta), from(s.recentRun())},
	}
}

// Next yields keys in ascending order, newer runs shadowing older ones,
// tombstones skipped; ok is false once the set is exhausted.
func (it *Iter) Next() (string, bool) {
	for {
		// The smallest head across the runs is the next key.
		k, ok := "", false
		if len(it.base) > 0 {
			k, ok = it.base[0], true
		}
		for _, run := range it.runs {
			if len(run) > 0 && (!ok || run[0].Key < k) {
				k, ok = run[0].Key, true
			}
		}
		if !ok {
			return "", false
		}
		// Every run holding it advances; the newest one decides.
		dead := false
		if len(it.base) > 0 && it.base[0] == k {
			it.base = it.base[1:]
		}
		for i, run := range it.runs {
			if len(run) > 0 && run[0].Key == k {
				dead = run[0].Dead
				it.runs[i] = run[1:]
			}
		}
		if !dead {
			return k, true
		}
	}
}
