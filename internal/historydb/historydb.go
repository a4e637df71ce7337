// Package historydb indexes the write history of every state key — the
// substrate behind Fabric's GetHistoryForKey and therefore behind
// HyperProv's GetKeyHistory operator. Like Fabric's history database it
// holds no values: per key, in commit order, a Locator of each committed
// write, which History resolves through the peer's block store. The
// committer records a block's locators after it appends the block, so
// every locator a reader sees resolves. One RWMutex guards the index: the
// committer records a block under one write lock and a read takes the read
// lock once, so it sees a recorded batch whole or not at all.
package historydb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"slices"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/rwset"
)

// Entry is one committed write to a key, as History resolves it from the
// chain.
type Entry struct {
	TxID      string    `json:"txId"`
	BlockNum  uint64    `json:"blockNum"`
	TxNum     uint64    `json:"txNum"`
	Value     []byte    `json:"value,omitempty"`
	IsDelete  bool      `json:"isDelete,omitempty"`
	Timestamp time.Time `json:"timestamp"`
}

// Locator is where one committed write to a key sits in the chain, in 16
// bytes: a block holds fewer than 2^32 transactions.
type Locator struct {
	BlockNum uint64
	TxNum    uint32
	IsDelete bool
}

// DB indexes per-key commit history in commit order (oldest first). No
// method takes mu twice on one goroutine.
type DB struct {
	blocks blockstore.BlockStore

	mu      sync.RWMutex
	entries map[string][]Locator
}

// NewIndex creates an empty history index over blocks, the chain its
// locators point into.
func NewIndex(blocks blockstore.BlockStore) *DB {
	return &DB{blocks: blocks, entries: make(map[string][]Locator)}
}

// New creates an index over no chain, whose History returns locators only:
// for committers whose history is never read, and benchmark probes.
func New() *DB { return NewIndex(nil) }

// Record appends one write to key's history. Only e's locator fields
// (BlockNum, TxNum, IsDelete) are kept.
func (db *DB) Record(key string, e Entry) {
	db.RecordBatch([]KeyedEntry{{Key: key, Entry: e}})
}

// KeyedEntry pairs a state key with one committed write, for batch
// recording.
type KeyedEntry struct {
	Key   string
	Entry Entry
}

// RecordBatch appends every write, in commit order, under one write lock.
// Only each entry's locator is kept: no value, transaction ID or timestamp.
func (db *DB) RecordBatch(recs []KeyedEntry) {
	if len(recs) == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := range recs {
		r := &recs[i]
		db.entries[r.Key] = append(db.entries[r.Key],
			Locator{BlockNum: r.Entry.BlockNum, TxNum: uint32(r.Entry.TxNum), IsDelete: r.Entry.IsDelete})
	}
}

// History returns key's history oldest-first: the locators are copied
// under the read lock and resolved after it is released, into the one
// allocation, the result. Each Value aliases a stored block: read-only.
func (db *DB) History(key string) []Entry {
	db.mu.RLock()
	locs := db.entries[key]
	out := make([]Entry, len(locs))
	for i, l := range locs {
		out[i] = Entry{BlockNum: l.BlockNum, TxNum: uint64(l.TxNum), IsDelete: l.IsDelete}
	}
	db.mu.RUnlock()
	if db.blocks != nil {
		for i := range out {
			db.resolve(key, &out[i])
		}
	}
	return out
}

// resolve fills e's transaction ID, timestamp and value from the envelope
// e locates, stored and its rwset parsed before e was recorded.
func (db *DB) resolve(key string, e *Entry) {
	b, err := db.blocks.GetByNumber(e.BlockNum)
	if err != nil || e.TxNum >= uint64(len(b.Envelopes)) {
		return
	}
	env := &b.Envelopes[e.TxNum]
	e.TxID, e.Timestamp = env.TxID, env.Timestamp
	_ = rwset.ScanWrites(env.RWSet, func(k, v []byte, _ bool) bool {
		if string(k) == key {
			e.Value = v
		}
		return e.Value == nil
	})
}

// Fingerprint hashes every key's locators (the chain covers the bytes
// behind them): indexes of one block stream, live or rebuilt by recovery,
// have equal fingerprints.
func (db *DB) Fingerprint() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	h := sha256.New()
	var num [8]byte
	for _, k := range slices.Sorted(maps.Keys(db.entries)) {
		binary.BigEndian.PutUint64(num[:], uint64(len(k)))
		h.Write(num[:])
		h.Write([]byte(k))
		locs := db.entries[k]
		binary.BigEndian.PutUint64(num[:], uint64(len(locs)))
		h.Write(num[:])
		for _, l := range locs {
			binary.BigEndian.PutUint64(num[:], l.BlockNum)
			h.Write(num[:])
			binary.BigEndian.PutUint64(num[:], uint64(l.TxNum))
			h.Write(num[:])
			if l.IsDelete {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
