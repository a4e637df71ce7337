package historydb

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/rwset"
)

// testChain is a block store and a history index over it, committed to one
// transaction per block the way the committer does: append, then record.
type testChain struct {
	t      *testing.T
	blocks *blockstore.Store
	db     *DB
}

func newChain(t *testing.T) *testChain {
	blocks := blockstore.NewStore()
	return &testChain{t: t, blocks: blocks, db: NewIndex(blocks)}
}

// commit appends a block whose one transaction, txID, makes writes, and
// records their locators.
func (c *testChain) commit(txID string, writes ...rwset.Write) {
	c.t.Helper()
	rws := &rwset.ReadWriteSet{Writes: writes}
	env := blockstore.Envelope{TxID: txID, Timestamp: time.Unix(1700000000, int64(c.blocks.Height())).UTC(),
		RWSet: rws.Marshal()}
	b := blockstore.NewBlock(c.blocks.Height(), c.blocks.LastHash(), []blockstore.Envelope{env})
	b.TxValidation = []blockstore.ValidationCode{blockstore.TxValid}
	if err := c.blocks.Append(b); err != nil {
		c.t.Fatal(err)
	}
	recs := make([]KeyedEntry, len(writes))
	for i, w := range writes {
		recs[i] = KeyedEntry{Key: w.Key, Entry: Entry{BlockNum: b.Header.Number, IsDelete: w.IsDelete}}
	}
	c.db.RecordBatch(recs)
}

func TestRecordAndHistoryOrder(t *testing.T) {
	c := newChain(t)
	for i := 0; i < 5; i++ {
		c.commit(fmt.Sprintf("tx%d", i),
			rwset.Write{Key: "j", Value: []byte("other")},
			rwset.Write{Key: "k", Value: []byte(fmt.Sprintf("v%d", i))})
	}
	h := c.db.History("k")
	if len(h) != 5 {
		t.Fatalf("history length = %d, want 5", len(h))
	}
	for i, e := range h {
		if e.TxID != fmt.Sprintf("tx%d", i) || e.BlockNum != uint64(i) || string(e.Value) != fmt.Sprintf("v%d", i) {
			t.Errorf("entry %d = %+v", i, e)
		}
		if want := time.Unix(1700000000, int64(i)).UTC(); !e.Timestamp.Equal(want) {
			t.Errorf("entry %d timestamp = %v, want %v", i, e.Timestamp, want)
		}
	}
	if got := c.db.History("absent"); len(got) != 0 {
		t.Errorf("History(absent) = %+v", got)
	}
}

// History hands out a fresh slice each call, and the index keeps no value:
// an index over no chain returns locators only, whatever was recorded.
func TestHistoryIsCopy(t *testing.T) {
	c := newChain(t)
	c.commit("t", rwset.Write{Key: "k", Value: []byte("original")})
	h1 := c.db.History("k")
	h1[0].TxID = "mutated"
	if c.db.History("k")[0].TxID != "t" {
		t.Error("History returns aliased slice")
	}
	bare := New()
	bare.Record("k", Entry{TxID: "t", BlockNum: 3, Value: []byte("original")})
	if got := bare.History("k"); len(got) != 1 || got[0].BlockNum != 3 || got[0].TxID != "" || got[0].Value != nil {
		t.Errorf("bare index History = %+v, want the locator alone", got)
	}
}

func TestDeleteEntriesTracked(t *testing.T) {
	c := newChain(t)
	c.commit("t1", rwset.Write{Key: "k", Value: []byte("v")})
	c.commit("t2", rwset.Write{Key: "k", IsDelete: true})
	h := c.db.History("k")
	if len(h) != 2 || !h[1].IsDelete || h[1].TxID != "t2" || h[1].Value != nil {
		t.Errorf("delete entry = %+v", h)
	}
	if h[0].IsDelete || string(h[0].Value) != "v" {
		t.Errorf("write entry = %+v", h[0])
	}
}

// Property: history length equals number of records, order preserved.
func TestQuickAppendOnly(t *testing.T) {
	f := func(n uint8) bool {
		db := New()
		count := int(n % 50)
		for i := 0; i < count; i++ {
			db.Record("key", Entry{BlockNum: uint64(i)})
		}
		h := db.History("key")
		if len(h) != count {
			return false
		}
		for i, e := range h {
			if e.BlockNum != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Recording a block copies no value: 8 writes of 300-byte values, each to
// one of an index's 64 keys that already holds one version, allocate only
// the grown locator slices — at most 32 bytes per write, where a value copy
// alone is 300.
func TestRecordBatchAllocs(t *testing.T) {
	const keys, writes, rounds, budget = 64, 8, 100, 32
	batch := func(block uint64, n int) []KeyedEntry {
		recs := make([]KeyedEntry, n)
		for i := range recs {
			recs[i] = KeyedEntry{Key: fmt.Sprintf("key-%02d", i), Entry: Entry{TxID: "tx", BlockNum: block,
				TxNum: uint64(i), Value: bytes.Repeat([]byte{'v'}, 300), Timestamp: time.Unix(1700000000, 0)}}
		}
		return recs
	}
	first, second := batch(0, keys), batch(1, writes)
	perRound := make([]uint64, rounds)
	var before, after runtime.MemStats
	for i := range perRound {
		db := New()
		db.RecordBatch(first)
		runtime.ReadMemStats(&before)
		db.RecordBatch(second)
		runtime.ReadMemStats(&after)
		perRound[i] = after.TotalAlloc - before.TotalAlloc
	}
	// The median round: a stray allocation elsewhere in the process can
	// land in any one window.
	slices.Sort(perRound)
	perWrite := float64(perRound[rounds/2]) / writes
	t.Logf("%.1f bytes allocated per recorded write", perWrite)
	if perWrite > budget {
		t.Errorf("recording allocated %.1f bytes per write, budget %d", perWrite, budget)
	}
}

// A history read allocates its result slice and nothing else: the
// transaction ID, timestamp and value of each of 17 versions are read out
// of the stored blocks in place.
func TestHistoryReadAllocs(t *testing.T) {
	c := newChain(t)
	for v := 0; v <= 16; v++ {
		c.commit(fmt.Sprintf("tx-%d", v),
			rwset.Write{Key: "a-before", Value: []byte("x")},
			rwset.Write{Key: "item", Value: []byte(fmt.Sprintf(`{"version":%d}`, v))},
			rwset.Write{Key: "z-after", Value: []byte("y")})
	}
	if got := c.db.History("item"); len(got) != 17 || string(got[16].Value) != `{"version":16}` || got[16].TxID != "tx-16" {
		t.Fatalf("history = %+v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.db.History("item") }); allocs != 1 {
		t.Errorf("History over 17 versions made %.1f allocations, want 1", allocs)
	}
}

// A read taken while RecordBatch runs sees each batch whole or not at all.
// 2,000 batches are recorded as 100 rounds of 20 into a fresh DB, each batch
// writing two entries to every one of 64 keys. While a round records, the
// test reads in a loop, at most once per recorded batch: a key's History
// must hold an even number of entries, and a Fingerprint must equal the
// fingerprint of some prefix of whole batches.
func TestSnapshotSeesWholeBatches(t *testing.T) {
	const keys, rounds, perRound = 64, 100, 20
	stream := make([][]KeyedEntry, perRound)
	for n := range stream {
		stream[n] = make([]KeyedEntry, 0, 2*keys)
		for i := range keys {
			for tx := range 2 {
				stream[n] = append(stream[n], KeyedEntry{Key: fmt.Sprintf("k%02d", i),
					Entry: Entry{BlockNum: uint64(n), TxNum: uint64(tx)}})
			}
		}
	}
	for _, row := range []struct {
		name string
		// whole reports whether a read of db shows only whole batches.
		whole func(db *DB) bool
	}{
		{"History", func(db *DB) bool { return len(db.History("k63"))%2 == 0 }},
		{"Fingerprint", func() func(*DB) bool {
			ref := New()
			at := map[string]bool{ref.Fingerprint(): true}
			for _, b := range stream {
				ref.RecordBatch(b)
				at[ref.Fingerprint()] = true
			}
			return func(db *DB) bool { return at[db.Fingerprint()] }
		}()},
	} {
		t.Run(row.name, func(t *testing.T) {
			reads, sheared := 0, 0
			for range rounds {
				db := New()
				var recorded atomic.Int64
				go func() {
					for _, b := range stream {
						db.RecordBatch(b)
						recorded.Add(1)
					}
				}()
				for last := int64(-1); last < perRound; {
					n := recorded.Load()
					if n == last {
						runtime.Gosched()
						continue
					}
					last = n
					reads++
					if !row.whole(db) {
						sheared++
					}
				}
			}
			if sheared > 0 {
				t.Errorf("%d of %d reads held part of a batch", sheared, reads)
			}
			t.Logf("%d reads", reads)
		})
	}
}

// The fingerprint covers each key's locators — key, block, transaction and
// delete flag — and nothing the chain already covers: a write's transaction
// ID, timestamp and value are not hashed.
func TestFingerprintSensitivity(t *testing.T) {
	mk := func(mut func(*KeyedEntry)) *DB {
		db := New()
		r := KeyedEntry{Key: "k", Entry: Entry{TxID: "tx1", BlockNum: 1, TxNum: 2, Value: []byte("v"),
			Timestamp: time.Unix(1700000000, 0).UTC()}}
		if mut != nil {
			mut(&r)
		}
		db.RecordBatch([]KeyedEntry{r})
		return db
	}
	base := mk(nil).Fingerprint()
	for name, mut := range map[string]func(*KeyedEntry){
		"key":    func(r *KeyedEntry) { r.Key = "j" },
		"block":  func(r *KeyedEntry) { r.Entry.BlockNum = 3 },
		"tx":     func(r *KeyedEntry) { r.Entry.TxNum = 3 },
		"delete": func(r *KeyedEntry) { r.Entry.IsDelete = true },
	} {
		if mk(mut).Fingerprint() == base {
			t.Errorf("fingerprint ignores %s", name)
		}
	}
	if mk(func(r *KeyedEntry) { r.Entry.TxID, r.Entry.Value = "tx2", []byte("w") }).Fingerprint() != base {
		t.Error("fingerprint hashes what the chain holds, not the locator")
	}
	if mk(nil).Fingerprint() != base {
		t.Error("fingerprint not deterministic")
	}
}
