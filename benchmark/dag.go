package main

import (
	"fmt"

	"github.com/hyperprov/hyperprov/internal/core"
)

// Shape of a seeded provenance DAG: chains of dagLength items, item i
// derived from items i-1 and i-2, plus dagVersions further versions of each
// chain's last key, so that key's history has dagVersions+1 entries.
const (
	dagLength   = 64
	dagVersions = 16
)

// Read targets are confined to index ranges of the chains so reads stay
// stationary while a run appends live items: those attach below
// liveParentMax, descendant queries start at or above descendantsMin, so no
// query's result grows as the run proceeds.
const (
	liveParentMax  = 32
	descendantsMin = 40
	descendantsMax = 60
)

// Read mix of one composite operation: twenty point and lineage reads.
const (
	readsGet         = 8
	readsChecksum    = 4
	readsHistory     = 4
	readsLineage     = 2
	readsDescendants = 2
)

// dag names the items of one seeded DAG. lineage_mixed commits a wide one
// during set-up; every traced run commits a narrow one on its workload's
// network, so the read-side probes have the same targets everywhere.
type dag struct {
	g      gen
	prefix string
	chains int
	// typeOf gives item i's meta.type.
	typeOf func(i int) string
}

func (d dag) key(chain, i int) string { return d.g.key(d.prefix, chain, i) }

// checksum is the checksum of version v of item (chain, i), in a round
// range no measured round uses.
func (d dag) checksum(chain, i, v int) string {
	return d.g.checksum(1000+int(d.prefix[0])*100+chain, i*(dagVersions+1)+v)
}

func (d dag) last(chain int) string { return d.key(chain, dagLength-1) }

// commitChain posts one chain in order: items 0..dagLength-1, then
// dagVersions rewrites of the last. All of a key's versions must come from
// one identity, so a chain has one client. Before each dependent write it
// waits until every peer holds the previous transaction: the gateway waits
// for commit on peer 0 only, and a lagging endorser majority would simulate
// against state that lacks the parent.
func (d dag) commitChain(cn *chainNet, cl *core.Client, chain int) error {
	for n := 0; n < dagLength+dagVersions; n++ {
		i, v := min(n, dagLength-1), max(0, n-dagLength+1)
		var parents []string
		for _, j := range []int{i - 1, i - 2} {
			if j >= 0 {
				parents = append(parents, d.key(chain, j))
			}
		}
		rec, err := cl.Post(d.key(chain, i), d.checksum(chain, i, v), core.PostOptions{
			Parents: parents,
			Meta:    map[string]string{"type": d.typeOf(i)},
		})
		if err == nil {
			err = cn.awaitTx(rec.TxID)
		}
		if err != nil {
			return fmt.Errorf("chain %d item %d v%d: %w", chain, i, v, err)
		}
	}
	return nil
}

// reads performs the twenty-read mix against the DAG, asserting every
// result; pick(n) draws the next seeded target in [0, n).
func (d dag) reads(cl *core.Client, pick func(n int) int) error {
	for k := 0; k < readsGet; k++ {
		key := d.key(pick(d.chains), pick(dagLength))
		rec, err := cl.Get(key)
		if err != nil {
			return err
		}
		if rec.Key != key {
			return fmt.Errorf("Get(%s) returned key %q", key, rec.Key)
		}
	}
	for k := 0; k < readsChecksum; k++ {
		chain, i := pick(d.chains), pick(dagLength-1)
		rec, err := cl.GetByChecksum(d.checksum(chain, i, 0))
		if err != nil {
			return err
		}
		if rec.Key != d.key(chain, i) {
			return fmt.Errorf("GetByChecksum returned key %q", rec.Key)
		}
	}
	for k := 0; k < readsHistory; k++ {
		hist, err := cl.GetKeyHistory(d.last(pick(d.chains)))
		if err != nil {
			return err
		}
		if len(hist) != dagVersions+1 {
			return fmt.Errorf("GetKeyHistory returned %d versions, want %d", len(hist), dagVersions+1)
		}
	}
	for k := 0; k < readsLineage; k++ {
		// From a chain's last item the breadth-first walk descends two
		// indexes per level: depth 32, all 64 items.
		recs, err := cl.GetLineage(d.last(pick(d.chains)))
		if err != nil {
			return err
		}
		if len(recs) != dagLength {
			return fmt.Errorf("GetLineage returned %d records, want %d", len(recs), dagLength)
		}
	}
	for k := 0; k < readsDescendants; k++ {
		i := descendantsMin + pick(descendantsMax-descendantsMin)
		recs, err := cl.GetDescendants(d.key(pick(d.chains), i))
		if err != nil {
			return err
		}
		if want := dagLength - 1 - i; len(recs) != want {
			return fmt.Errorf("GetDescendants returned %d records, want %d", len(recs), want)
		}
	}
	return nil
}

// byType runs the rich query for one type and asserts the result's length.
func (d dag) byType(cl *core.Client, typ string, want int) error {
	recs, err := cl.GetByType(typ)
	if err != nil {
		return err
	}
	if len(recs) != want {
		return fmt.Errorf("GetByType(%s) returned %d records, want %d", typ, len(recs), want)
	}
	return nil
}
