package committer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"iter"

	"github.com/hyperprov/hyperprov/internal/statedb"
)

// StateFingerprint returns a deterministic hash over a state database's
// live keys, values, and versions. Two stores that committed the same block
// stream — through any committer engine, live or via checkpoint restore
// plus tail replay — have equal fingerprints; the equivalence test, the
// commit benchmark, and the crash-recovery torture tests all lean on this.
// The hash streams from a snapshot's ordered iterator: no materialized
// copy, no sort.
func StateFingerprint(s statedb.StateDB) string {
	snap := s.Snapshot()
	defer snap.Release()
	it := snap.All()
	defer it.Close()
	return Fingerprint(func(yield func(statedb.KV) bool) {
		for kv, ok := it.Next(); ok && yield(kv); kv, ok = it.Next() {
		}
	})
}

// Fingerprint hashes a whole state given as its entries in key order — a
// snapshot's All, or a checkpoint's State, which is stamped with it at
// write time and checked against it on load.
func Fingerprint(kvs iter.Seq[statedb.KV]) string {
	h := sha256.New()
	var num [8]byte
	for kv := range kvs {
		binary.BigEndian.PutUint64(num[:], uint64(len(kv.Key)))
		h.Write(num[:])
		h.Write([]byte(kv.Key))
		binary.BigEndian.PutUint64(num[:], uint64(len(kv.Value)))
		h.Write(num[:])
		h.Write(kv.Value)
		binary.BigEndian.PutUint64(num[:], kv.Version.BlockNum)
		h.Write(num[:])
		binary.BigEndian.PutUint64(num[:], kv.Version.TxNum)
		h.Write(num[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
