package committer

import (
	"sort"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// This file implements conflict-graph MVCC scheduling: stage 2's walk, the
// last strictly sequential step in the commit hot path, fanned across a
// worker pool. Two transactions conflict iff one writes a key (or a key
// inside a range) the other reads or writes; independent transactions
// validate and stage concurrently, and conflicting ones serialize along the
// graph's edges in original transaction order. Scheduling is by topological
// wavefronts with a barrier between waves, which is what makes the verdicts
// bit-identical to the serial walk:
//
//   - Every transaction whose writes could influence tx j's verdict (point
//     read, query-observed key, or range bounds overlap) shares an edge
//     with j, directed by transaction order — so by the time j's wave runs,
//     exactly the earlier-in-order conflicting transactions have settled
//     and merged their writes into blockWrites.
//   - Transactions that merged early despite a LATER transaction order
//     (possible for conflict-free txs) touch only keys outside j's
//     footprint, which the MVCC check never consults for j.
//
// The serial walk therefore remains the equivalence oracle: for any block
// stream and any worker count, codes, state, and history match exactly.

// conflictGraph is the per-block transaction dependency DAG. Edges run from
// lower to higher transaction index, so every topological order respects
// the block's serialization order along conflicts.
type conflictGraph struct {
	succ  [][]int // succ[i]: transaction indexes that must wait for i
	indeg []int
	edges int
}

// writerChain tracks, per key, the ascending transaction indexes that write
// it. Writers of one key are chained pairwise (w1→w2→w3), so a reader only
// needs edges to its nearest writer on each side: the chain transitively
// orders it against all the others.
type writerChain struct {
	txs []int
}

// buildConflictGraph constructs the dependency graph over a block's
// prevalidated rwsets. Only stage-1-valid transactions contribute
// footprints; transactions with settled failure codes are isolated nodes
// (their verdict is already final and they stage no writes). The footprints
// come straight off the deserialized rwsets — nothing is re-unmarshaled.
func buildConflictGraph(preval []PrevalResult) *conflictGraph {
	n := len(preval)
	g := &conflictGraph{succ: make([][]int, n), indeg: make([]int, n)}

	fps := make([]rwset.Footprint, n)
	writers := make(map[string]*writerChain)
	for i, pr := range preval {
		if pr.Code != blockstore.TxValid || pr.RWSet == nil {
			continue
		}
		fps[i] = pr.RWSet.Footprint()
		for _, k := range fps[i].WriteKeys {
			wc := writers[k]
			if wc == nil {
				wc = &writerChain{}
				writers[k] = wc
			}
			// Chain consecutive writers of the same key (write-write edge).
			if m := len(wc.txs); m > 0 && wc.txs[m-1] != i {
				g.addEdge(wc.txs[m-1], i)
			}
			if m := len(wc.txs); m == 0 || wc.txs[m-1] != i {
				wc.txs = append(wc.txs, i)
			}
		}
	}
	if len(writers) == 0 {
		return g // write-free block: every tx is independent
	}

	// sortedWriteKeys supports the range-bounds overlap scan: written keys
	// inside [start, end) are found with two binary searches instead of
	// probing every written key against every range.
	sortedWriteKeys := make([]string, 0, len(writers))
	for k := range writers {
		sortedWriteKeys = append(sortedWriteKeys, k)
	}
	sort.Strings(sortedWriteKeys)

	for j := range preval {
		fp := &fps[j]
		for _, k := range fp.ReadKeys {
			if wc := writers[k]; wc != nil {
				g.linkReader(j, wc)
			}
		}
		for _, rb := range fp.RangeBounds {
			lo := sort.SearchStrings(sortedWriteKeys, rb.Start)
			for x := lo; x < len(sortedWriteKeys); x++ {
				k := sortedWriteKeys[x]
				if rb.End != "" && k >= rb.End {
					break
				}
				g.linkReader(j, writers[k])
			}
		}
	}
	return g
}

// linkReader orders reader j against a key's writer chain: one edge from
// the nearest writer before j, one to the nearest writer after j. The
// chain's internal edges order j against the rest transitively.
func (g *conflictGraph) linkReader(j int, wc *writerChain) {
	// wc.txs is ascending; find the first writer with index >= j.
	x := sort.SearchInts(wc.txs, j)
	if x > 0 && wc.txs[x-1] != j {
		g.addEdge(wc.txs[x-1], j)
	}
	for ; x < len(wc.txs); x++ {
		if wc.txs[x] != j {
			g.addEdge(j, wc.txs[x])
			return
		}
	}
}

// addEdge records i→j (i validates and merges before j), skipping exact
// duplicates of the most recent edge from i — the builder emits edges for
// one consumer key at a time, so repeats cluster.
func (g *conflictGraph) addEdge(i, j int) {
	if s := g.succ[i]; len(s) > 0 && s[len(s)-1] == j {
		return
	}
	g.succ[i] = append(g.succ[i], j)
	g.indeg[j]++
	g.edges++
}

// waves returns the topological wavefronts in original transaction order:
// wave 0 holds every transaction with no unsettled predecessor, wave k+1
// the ones unblocked by wave k. Within a wave, indexes ascend. A
// conflict-free block yields one wave of width n; a fully chained block
// degenerates to n waves of width 1 — the serial walk.
func (g *conflictGraph) waves() [][]int {
	n := len(g.indeg)
	indeg := make([]int, n)
	copy(indeg, g.indeg)
	wave := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			wave = append(wave, i)
		}
	}
	var out [][]int
	for len(wave) > 0 {
		out = append(out, wave)
		var next []int
		for _, i := range wave {
			for _, j := range g.succ[i] {
				// Duplicate edges (the builder suppresses only clustered
				// repeats) decrement multiple times; a node is ready when
				// its count reaches zero exactly once.
				indeg[j]--
				if indeg[j] == 0 {
					next = append(next, j)
				}
			}
		}
		sort.Ints(next)
		wave = next
	}
	return out
}

// mvccFinalizeParallel is stage 2's conflict-graph scheduler: the parallel
// equivalent of mvccFinalize. It settles every transaction's final
// validation code and accumulates the block's UpdateBatch and history
// entries, validating independent transactions concurrently across up to
// `workers` goroutines. Like mvccFinalize it only reads state — the caller
// applies the batch.
func mvccFinalizeParallel(cfg Config, t *task, workers int) {
	b := t.b
	n := len(b.Envelopes)

	start := stageStart()
	g := buildConflictGraph(t.preval)
	waves := g.waves()
	if cfg.Metrics != nil {
		cfg.Metrics.Histogram(metrics.CommitMVCCGraphBuild).Observe(stageElapsed(start))
	}

	// blockWrites is written only at wave barriers and read concurrently
	// within a wave; the graph guarantees no wave both reads and settles
	// the same key.
	blockWrites := make(map[string]bool, n)
	staging := statedb.NewStagingBatch(workers)
	histPerTx := make([][]historydb.KeyedEntry, n)

	validate := func(i int) {
		env := &b.Envelopes[i]
		pr := t.preval[i]
		code := pr.Code
		if code == blockstore.TxValid {
			if err := rwset.Validate(pr.RWSet, cfg.State, blockWrites); err != nil {
				code = blockstore.TxMVCCConflict
			}
		}
		b.TxValidation[i] = code
		if code != blockstore.TxValid {
			return
		}
		ver := statedb.Version{BlockNum: b.Header.Number, TxNum: uint64(i)}
		entries := make([]historydb.KeyedEntry, 0, len(pr.RWSet.Writes))
		for _, w := range pr.RWSet.Writes {
			if w.IsDelete {
				staging.Delete(w.Key, ver)
			} else {
				staging.Put(w.Key, w.Value, ver)
			}
			entries = append(entries, historydb.KeyedEntry{Key: w.Key, Entry: historydb.Entry{
				TxID:      env.TxID,
				BlockNum:  b.Header.Number,
				TxNum:     uint64(i),
				Value:     w.Value,
				IsDelete:  w.IsDelete,
				Timestamp: env.Timestamp,
			}})
		}
		histPerTx[i] = entries
	}

	var widths *metrics.Histogram
	if cfg.Metrics != nil {
		widths = cfg.Metrics.Histogram(metrics.CommitMVCCWaveWidth)
	}
	for _, wave := range waves {
		if widths != nil {
			// Widths ride in nanosecond slots (1 tx == 1ns), like the
			// gossip convergence-lag histogram.
			widths.Observe(time.Duration(len(wave)))
		}
		// The modeled validate/apply cost is charged per worker stripe, not
		// per transaction: a worker's core spends the same total time either
		// way, and the batch charge costs one core acquisition instead of
		// one per tx. Charges never influence verdicts, so equivalence with
		// the serial walk (which charges per tx) is unaffected.
		if par := min(workers, len(wave)); par <= 1 {
			cfg.Exec.CommitN(len(wave))
			for _, i := range wave {
				validate(i)
			}
		} else {
			// Striped assignment, like stage 1's prevalidate fan-out.
			done := make(chan struct{}, par)
			for w := 0; w < par; w++ {
				go func(w int) {
					cfg.Exec.CommitN((len(wave) - w + par - 1) / par)
					for x := w; x < len(wave); x += par {
						validate(wave[x])
					}
					done <- struct{}{}
				}(w)
			}
			for w := 0; w < par; w++ {
				<-done
			}
		}
		// Barrier: merge the wave's settled writes so the next wave's
		// validations see exactly the earlier-in-order valid writers.
		for _, i := range wave {
			if b.TxValidation[i] != blockstore.TxValid {
				continue
			}
			for _, w := range t.preval[i].RWSet.Writes {
				blockWrites[w.Key] = true
			}
		}
	}

	t.batch = staging.Batch()
	// Flatten per-transaction history in transaction order — byte-identical
	// to the serial walk's append order.
	for _, entries := range histPerTx {
		t.hist = append(t.hist, entries...)
	}
}
