package statedb

import (
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// keyIndex is the copy-on-write ordered key index behind range scans,
// composite-key queries, and snapshot iteration. It holds every live key of
// the store (plain and composite) in three runs, oldest to newest:
//
//   - base: the bulk of the keyspace, sorted, rebuilt only at compaction;
//   - delta: additions and deletions (tombstones) since the last compaction,
//     sorted, rebuilt only when the recent log is folded into it;
//   - recent: the changes of the last few batches in arrival order, at most
//     recentLen of them. An apply appends its batch and copies nothing; the
//     first reader of an index sorts its log, once (recentRun).
//
// Nothing a published index can see is mutated afterwards — an apply appends
// to the log beyond the length older indexes hold — so a reader (or
// snapshot) that grabbed a *keyIndex can iterate it without any lock while
// writers publish successors. Iteration is a three-way merge in which a
// newer run's entry shadows an older run's entry for the same key and
// tombstones are skipped. Seeking is three binary searches, which is what
// makes range scans O(log n + result).
//
// A batch therefore pays for what it changes, whatever the size of the
// state: the delta is copied once per recentLen changes and the base once
// per delta fold limit, so both amortize to a small constant per written
// key.
type keyIndex struct {
	base   []string
	delta  []deltaKey
	recent []deltaKey
	live   int // total live keys (the runs merged, minus tombstones)

	// sorted memoizes recentRun. Racing readers compute the same value.
	sorted atomic.Pointer[[]deltaKey]
}

// deltaKey is one change since the last compaction: a key added, or a
// tombstone (dead=true) for a key deleted from an older run.
type deltaKey struct {
	key  string
	dead bool
}

var emptyKeyIndex = &keyIndex{}

// recentLen is the length at which the recent log is folded into the delta:
// the delta is copied once per this many changes, and a reader sorts at most
// this many entries. compactionFloor is the minimum delta length before
// compaction is considered; below it, merge-iteration over the delta is
// cheaper than rebuilding the base. maxDeltaLen caps the delta absolutely,
// so a fold copies a bounded number of entries however large the base
// grows, and full compactions amortize to O(base/maxDeltaLen) per written
// key.
const (
	recentLen       = 256
	compactionFloor = 512
	maxDeltaLen     = 16384
)

// apply publishes a new index reflecting a batch's changes: every key that
// became live (it was absent before the batch) and, as a tombstone, every
// key that stopped being live (it was present). An UpdateBatch stages at
// most one write per key, so a batch's keys are distinct. Only the newest
// index may be applied to, by one writer at a time (Store.applyMu): the
// successor's log shares the predecessor's backing array.
func (ix *keyIndex) apply(changes []deltaKey) *keyIndex {
	if len(changes) == 0 {
		return ix
	}
	out := &keyIndex{base: ix.base, delta: ix.delta, recent: append(ix.recent, changes...), live: ix.live}
	for _, c := range changes {
		if c.dead {
			out.live--
		} else {
			out.live++
		}
	}
	if len(out.recent) < recentLen {
		return out
	}
	out.delta, out.recent = mergeRuns(out.delta, sortRun(out.recent)), nil
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
func (ix *keyIndex) recentRun() []deltaKey {
	if len(ix.recent) == 0 {
		return nil
	}
	if run := ix.sorted.Load(); run != nil {
		return *run
	}
	run := sortRun(ix.recent)
	ix.sorted.Store(&run)
	return run
}

// sortRun turns a log of changes in arrival order into a sorted run; of a
// key changed more than once, the newest entry survives.
func sortRun(log []deltaKey) []deltaKey {
	run := slices.Clone(log)
	slices.SortStableFunc(run, func(a, b deltaKey) int { return strings.Compare(a.key, b.key) })
	out := run[:0]
	for i, c := range run {
		if i+1 == len(run) || run[i+1].key != c.key {
			out = append(out, c)
		}
	}
	return out
}

// mergeRuns merges two sorted runs into a fresh one; on equal keys the newer
// run's entry wins. Tombstones are kept: they still shadow older runs. An
// empty side returns the other side itself — runs are immutable, so sharing
// is safe.
func mergeRuns(older, newer []deltaKey) []deltaKey {
	if len(older) == 0 {
		return newer
	}
	if len(newer) == 0 {
		return older
	}
	out := make([]deltaKey, 0, len(older)+len(newer))
	oi, ni := 0, 0
	for oi < len(older) && ni < len(newer) {
		switch c := strings.Compare(older[oi].key, newer[ni].key); {
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
func compact(base []string, delta []deltaKey, live int) []string {
	out := make([]string, 0, live)
	bi := 0
	for _, d := range delta {
		for bi < len(base) && base[bi] < d.key {
			out = append(out, base[bi])
			bi++
		}
		if bi < len(base) && base[bi] == d.key {
			bi++
		}
		if !d.dead {
			out = append(out, d.key)
		}
	}
	return append(out, base[bi:]...)
}

// keyIter is a cursor over a keyIndex, positioned by seek. It holds only
// immutable slices, so it stays valid however far the store advances.
type keyIter struct {
	base []string
	runs [2][]deltaKey // delta, recent: the remaining entries, older first
}

// seek positions a cursor at the first key >= start.
func (ix *keyIndex) seek(start string) keyIter {
	from := func(run []deltaKey) []deltaKey {
		return run[sort.Search(len(run), func(i int) bool { return run[i].key >= start }):]
	}
	return keyIter{
		base: ix.base[sort.SearchStrings(ix.base, start):],
		runs: [2][]deltaKey{from(ix.delta), from(ix.recentRun())},
	}
}

// next yields keys in ascending order, newer runs shadowing older ones,
// tombstones skipped; ok is false once the index is exhausted.
func (it *keyIter) next() (string, bool) {
	for {
		// The smallest head across the runs is the next key.
		k, ok := "", false
		if len(it.base) > 0 {
			k, ok = it.base[0], true
		}
		for _, run := range it.runs {
			if len(run) > 0 && (!ok || run[0].key < k) {
				k, ok = run[0].key, true
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
			if len(run) > 0 && run[0].key == k {
				dead = run[0].dead
				it.runs[i] = run[1:]
			}
		}
		if !dead {
			return k, true
		}
	}
}
