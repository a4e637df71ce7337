package historydb

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestRecordAndHistoryOrder(t *testing.T) {
	db := New()
	for i := 0; i < 5; i++ {
		db.Record("k", Entry{
			TxID:     fmt.Sprintf("tx%d", i),
			BlockNum: uint64(i),
			Value:    []byte(fmt.Sprintf("v%d", i)),
		})
	}
	h := db.History("k")
	if len(h) != 5 {
		t.Fatalf("history length = %d, want 5", len(h))
	}
	for i, e := range h {
		if e.TxID != fmt.Sprintf("tx%d", i) {
			t.Errorf("entry %d txid = %q", i, e.TxID)
		}
	}
	if db.Versions("k") != 5 {
		t.Errorf("Versions = %d", db.Versions("k"))
	}
	if db.Versions("absent") != 0 {
		t.Errorf("Versions(absent) = %d", db.Versions("absent"))
	}
	if db.Keys() != 1 {
		t.Errorf("Keys = %d", db.Keys())
	}
}

func TestHistoryIsCopy(t *testing.T) {
	db := New()
	val := []byte("original")
	db.Record("k", Entry{TxID: "t", Value: val})
	// Mutating the caller's slice after Record must not affect history.
	val[0] = 'X'
	if got := db.History("k")[0].Value[0]; got != 'o' {
		t.Errorf("Record aliased caller slice: %c", got)
	}
	// Mutating a returned history entry must not affect the DB... entries
	// share value storage across copies of the slice header, so verify the
	// returned top-level slice at least is fresh.
	h1 := db.History("k")
	h1[0].TxID = "mutated"
	if db.History("k")[0].TxID != "t" {
		t.Error("History returns aliased slice")
	}
}

func TestDeleteEntriesTracked(t *testing.T) {
	db := New()
	db.Record("k", Entry{TxID: "t1", Value: []byte("v")})
	db.Record("k", Entry{TxID: "t2", IsDelete: true, Timestamp: time.Unix(10, 0)})
	h := db.History("k")
	if !h[1].IsDelete {
		t.Error("delete entry not flagged")
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

func TestSnapshotRestoreRoundtrip(t *testing.T) {
	db := New()
	for i := 0; i < 4; i++ {
		db.Record("a", Entry{TxID: fmt.Sprintf("tx%d", i), BlockNum: uint64(i),
			Value: []byte("va"), Timestamp: time.Unix(1700000000+int64(i), 0).UTC()})
	}
	db.Record("b", Entry{TxID: "txb", BlockNum: 9, IsDelete: true})

	snap := db.Snapshot()
	restored := New()
	restored.Restore(snap)
	if restored.Keys() != db.Keys() || restored.Versions("a") != 4 {
		t.Fatalf("restored keys=%d versions(a)=%d", restored.Keys(), restored.Versions("a"))
	}
	if db.Fingerprint() != restored.Fingerprint() {
		t.Error("fingerprint changed across snapshot/restore")
	}
	// The snapshot is a deep copy: mutating it must not reach the source.
	snap["a"][0].Value[0] = 'X'
	if got := db.History("a")[0].Value[0]; got == 'X' {
		t.Error("snapshot shares value bytes with the live DB")
	}
}

// A read taken while RecordBatch runs sees each batch whole or not at all.
// 2,000 batches are recorded as 100 rounds of 20 into a fresh DB, each batch
// writing one entry to every one of 64 keys. While a round records, the test
// reads in a loop, at most once per recorded batch: a Snapshot must hold the
// same number of entries for every key, and a Fingerprint must equal the
// fingerprint of some prefix of whole batches.
func TestSnapshotSeesWholeBatches(t *testing.T) {
	const keys, rounds, perRound = 64, 100, 20
	stream := make([][]KeyedEntry, perRound)
	for n := range stream {
		stream[n] = make([]KeyedEntry, keys)
		for i := range stream[n] {
			stream[n][i] = KeyedEntry{Key: fmt.Sprintf("k%02d", i), Entry: Entry{TxID: "tx", BlockNum: uint64(n)}}
		}
	}
	for _, row := range []struct {
		name string
		// whole reports whether a read of db shows only whole batches.
		whole func(db *DB) bool
	}{
		{"Snapshot", func(db *DB) bool {
			snap := db.Snapshot()
			for _, h := range snap {
				if len(snap) != keys || len(h) != len(snap["k00"]) {
					return false
				}
			}
			return true
		}},
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

func TestFingerprintSensitivity(t *testing.T) {
	mk := func(mut func(*Entry)) *DB {
		db := New()
		e := Entry{TxID: "tx1", BlockNum: 1, TxNum: 2, Value: []byte("v"),
			Timestamp: time.Unix(1700000000, 0).UTC()}
		if mut != nil {
			mut(&e)
		}
		db.Record("k", e)
		return db
	}
	base := mk(nil).Fingerprint()
	for name, mut := range map[string]func(*Entry){
		"txid":   func(e *Entry) { e.TxID = "tx2" },
		"block":  func(e *Entry) { e.BlockNum = 3 },
		"value":  func(e *Entry) { e.Value = []byte("w") },
		"delete": func(e *Entry) { e.IsDelete = true },
	} {
		if mk(mut).Fingerprint() == base {
			t.Errorf("fingerprint ignores %s", name)
		}
	}
	if mk(nil).Fingerprint() != base {
		t.Error("fingerprint not deterministic")
	}
}
