// Package historydb records the full write history of every state key —
// the substrate behind Fabric's GetHistoryForKey and therefore behind
// HyperProv's GetKeyHistory operator, which returns every version a data
// item's provenance record has gone through.
//
// One RWMutex guards the whole database. The commit pipeline records a
// block's writes under one write lock, and every read — History, Snapshot,
// Fingerprint — takes the read lock once, so it sees a recorded batch whole
// or not at all.
package historydb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// Entry is one committed write to a key.
type Entry struct {
	TxID      string    `json:"txId"`
	BlockNum  uint64    `json:"blockNum"`
	TxNum     uint64    `json:"txNum"`
	Value     []byte    `json:"value,omitempty"`
	IsDelete  bool      `json:"isDelete,omitempty"`
	Timestamp time.Time `json:"timestamp"`
}

// DB stores per-key commit history in commit order (oldest first). No
// method takes mu twice on one goroutine.
type DB struct {
	mu      sync.RWMutex
	entries map[string][]Entry
}

// New creates an empty history DB.
func New() *DB { return &DB{entries: make(map[string][]Entry)} }

// Record appends an entry to key's history. Values are copied.
func (db *DB) Record(key string, e Entry) {
	db.RecordBatch([]KeyedEntry{{Key: key, Entry: e}})
}

// KeyedEntry pairs a state key with one history entry, for batch recording.
type KeyedEntry struct {
	Key   string
	Entry Entry
}

// RecordBatch appends every entry under one write lock — the commit
// pipeline records one batch per block instead of locking per write.
// Entries must be in commit order. Values are copied.
func (db *DB) RecordBatch(recs []KeyedEntry) {
	if len(recs) == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, r := range recs {
		e := r.Entry
		val := make([]byte, len(e.Value))
		copy(val, e.Value)
		e.Value = val
		db.entries[r.Key] = append(db.entries[r.Key], e)
	}
}

// History returns key's history oldest-first. The returned slice is a copy.
func (db *DB) History(key string) []Entry {
	db.mu.RLock()
	defer db.mu.RUnlock()
	src := db.entries[key]
	out := make([]Entry, len(src))
	copy(out, src)
	return out
}

// Versions returns the number of committed writes (including deletes) to key.
func (db *DB) Versions(key string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.entries[key])
}

// Keys returns how many distinct keys have history.
func (db *DB) Keys() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.entries)
}

// Snapshot returns a deep copy of the full history, keyed by state key.
// Checkpoints persist this form so a restarted peer recovers GetKeyHistory
// without replaying the chain from genesis. The copy is taken under one
// read lock, so it holds every recorded batch whole or not at all.
func (db *DB) Snapshot() map[string][]Entry {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string][]Entry, len(db.entries))
	for k, src := range db.entries {
		out[k] = copyEntries(src)
	}
	return out
}

// copyEntries deep-copies an entry slice, including each value's bytes.
func copyEntries(src []Entry) []Entry {
	entries := make([]Entry, len(src))
	copy(entries, src)
	for i := range entries {
		if entries[i].Value != nil {
			val := make([]byte, len(entries[i].Value))
			copy(val, entries[i].Value)
			entries[i].Value = val
		}
	}
	return entries
}

// Restore replaces the full history with snap (checkpoint recovery). The
// database takes ownership of snap, its slices and their value bytes: the
// caller decoded it freshly and never touches it again.
func (db *DB) Restore(snap map[string][]Entry) {
	db.mu.Lock()
	db.entries = snap
	db.mu.Unlock()
}

// Fingerprint returns a deterministic hash over every key's entry sequence.
// Two history databases that recorded the same committed block stream —
// whether live or rebuilt through checkpoint restore plus tail replay —
// have equal fingerprints; crash-recovery tests pin exactness with it.
// Entries are hashed in place under one read lock (no deep copy), so the
// hash covers every recorded batch whole or not at all.
func (db *DB) Fingerprint() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	keys := make([]string, 0, len(db.entries))
	for k := range db.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var num [8]byte
	writeBytes := func(b []byte) {
		binary.BigEndian.PutUint64(num[:], uint64(len(b)))
		h.Write(num[:])
		h.Write(b)
	}
	for _, k := range keys {
		writeBytes([]byte(k))
		for _, e := range db.entries[k] {
			writeBytes([]byte(e.TxID))
			binary.BigEndian.PutUint64(num[:], e.BlockNum)
			h.Write(num[:])
			binary.BigEndian.PutUint64(num[:], e.TxNum)
			h.Write(num[:])
			writeBytes(e.Value)
			if e.IsDelete {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
			writeBytes([]byte(e.Timestamp.UTC().Format(time.RFC3339Nano)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
