// Package rwset defines transaction read/write sets and MVCC validation,
// the mechanism at the heart of Fabric's execute–order–validate pipeline.
// Chaincode simulation records every state read (with the version observed)
// and every write; at commit time the validator re-checks each read version
// against current state and invalidates transactions that lost a conflict.
package rwset

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/hyperprov/hyperprov/internal/statedb"
)

// Read records one state read and the version observed during simulation.
// Version is nil when the key did not exist at simulation time.
type Read struct {
	Key     string           `json:"key"`
	Version *statedb.Version `json:"version,omitempty"`
}

// Write records one state write (or delete) produced during simulation.
type Write struct {
	Key      string `json:"key"`
	Value    []byte `json:"value,omitempty"`
	IsDelete bool   `json:"isDelete,omitempty"`
}

// RangeRead records a range query performed during simulation; phantom
// protection re-executes the range at validation time and compares results.
type RangeRead struct {
	StartKey string   `json:"startKey"`
	EndKey   string   `json:"endKey"`
	Keys     []string `json:"keys"` // keys observed, in order
}

// QueryRead records a rich (Mango) query performed during simulation: the
// query document itself plus the keys it returned, in order. It is the
// rich-query analog of RangeRead: when the committing state database can
// execute rich queries, validation re-runs the query and fails the
// transaction if the result set changed (phantom protection); otherwise it
// falls back to checking the observed keys against earlier-in-block writes.
type QueryRead struct {
	Query json.RawMessage `json:"query"`
	Keys  []string        `json:"keys"` // keys observed, in order
}

// ReadWriteSet is the complete effect of simulating one transaction.
type ReadWriteSet struct {
	Reads      []Read      `json:"reads,omitempty"`
	Writes     []Write     `json:"writes,omitempty"`
	RangeReads []RangeRead `json:"rangeReads,omitempty"`
	QueryReads []QueryRead `json:"queryReads,omitempty"`
}

// Marshal encodes the rwset into its canonical binary form, deterministic
// by construction (reads/writes sorted by key, length-prefixed fields).
// Every endorser of one simulation therefore produces identical bytes.
func (rws *ReadWriteSet) Marshal() ([]byte, error) {
	rws.normalize()
	return appendRWSet(nil, rws), nil
}

// Unmarshal decodes an rwset produced by Marshal.
func Unmarshal(b []byte) (*ReadWriteSet, error) {
	return decodeRWSet(b)
}

func (rws *ReadWriteSet) normalize() {
	sort.Slice(rws.Reads, func(i, j int) bool { return rws.Reads[i].Key < rws.Reads[j].Key })
	sort.Slice(rws.Writes, func(i, j int) bool { return rws.Writes[i].Key < rws.Writes[j].Key })
}

// Equal reports whether two rwsets have identical normalized content. The
// endorsement step uses this to confirm that all endorsing peers simulated
// the same effect.
func (rws *ReadWriteSet) Equal(o *ReadWriteSet) bool {
	a, err := rws.Marshal()
	if err != nil {
		return false
	}
	b, err := o.Marshal()
	if err != nil {
		return false
	}
	return string(a) == string(b)
}

// Builder collects reads and writes during chaincode simulation. Reads of
// keys already written within the same simulation are served from the write
// cache and do not add read dependencies (read-your-writes).
type Builder struct {
	reads      map[string]*statedb.Version
	writes     map[string]Write
	rangeReads []RangeRead
	queryReads []QueryRead
}

// NewBuilder creates an empty rwset builder.
func NewBuilder() *Builder {
	return &Builder{
		reads:  make(map[string]*statedb.Version),
		writes: make(map[string]Write),
	}
}

// AddRead records that key was read at the given version (nil if absent).
// Only the first read of a key is recorded; simulation sees a stable view.
func (b *Builder) AddRead(key string, ver *statedb.Version) {
	if _, seen := b.reads[key]; seen {
		return
	}
	if ver != nil {
		v := *ver
		b.reads[key] = &v
	} else {
		b.reads[key] = nil
	}
}

// AddWrite records a write of value to key.
func (b *Builder) AddWrite(key string, value []byte) {
	val := make([]byte, len(value))
	copy(val, value)
	b.writes[key] = Write{Key: key, Value: val}
}

// AddDelete records a deletion of key.
func (b *Builder) AddDelete(key string) {
	b.writes[key] = Write{Key: key, IsDelete: true}
}

// AddRangeRead records a range query and the keys it observed.
func (b *Builder) AddRangeRead(start, end string, keys []string) {
	ks := make([]string, len(keys))
	copy(ks, keys)
	b.rangeReads = append(b.rangeReads, RangeRead{StartKey: start, EndKey: end, Keys: ks})
}

// AddQueryRead records a rich query and the keys it observed.
func (b *Builder) AddQueryRead(query []byte, keys []string) {
	q := make(json.RawMessage, len(query))
	copy(q, query)
	ks := make([]string, len(keys))
	copy(ks, keys)
	b.queryReads = append(b.queryReads, QueryRead{Query: q, Keys: ks})
}

// PendingWrite returns the in-simulation written value for key, if any.
// deleted reports whether the pending write is a delete.
func (b *Builder) PendingWrite(key string) (value []byte, deleted, ok bool) {
	w, ok := b.writes[key]
	if !ok {
		return nil, false, false
	}
	return w.Value, w.IsDelete, true
}

// Build produces the final normalized rwset.
func (b *Builder) Build() *ReadWriteSet {
	rws := &ReadWriteSet{}
	for key, ver := range b.reads {
		rws.Reads = append(rws.Reads, Read{Key: key, Version: ver})
	}
	for _, w := range b.writes {
		rws.Writes = append(rws.Writes, w)
	}
	rws.RangeReads = append(rws.RangeReads, b.rangeReads...)
	rws.QueryReads = append(rws.QueryReads, b.queryReads...)
	rws.normalize()
	return rws
}

// Validate performs the MVCC check for one transaction against current
// committed state, also considering writes applied earlier in the same
// block (blockWrites). It returns nil if every read version still matches.
// It works against any StateDB implementation; rich-query phantom checks
// engage only when the state database supports rich queries.
func Validate(rws *ReadWriteSet, state statedb.StateDB, blockWrites map[string]bool) error {
	for _, r := range rws.Reads {
		if blockWrites[r.Key] {
			return fmt.Errorf("rwset: mvcc conflict on %q: written earlier in block", r.Key)
		}
		cur, ok := state.GetVersion(r.Key)
		switch {
		case r.Version == nil && ok:
			return fmt.Errorf("rwset: mvcc conflict on %q: key created since simulation", r.Key)
		case r.Version != nil && !ok:
			return fmt.Errorf("rwset: mvcc conflict on %q: key deleted since simulation", r.Key)
		case r.Version != nil && cur.Compare(*r.Version) != 0:
			return fmt.Errorf("rwset: mvcc conflict on %q: version %v != simulated %v",
				r.Key, cur, *r.Version)
		}
	}
	for _, rr := range rws.RangeReads {
		if err := validateRange(rr, state, blockWrites); err != nil {
			return err
		}
	}
	for _, qr := range rws.QueryReads {
		if err := validateQuery(qr, state, blockWrites); err != nil {
			return err
		}
	}
	return nil
}

func validateRange(rr RangeRead, state statedb.StateDB, blockWrites map[string]bool) error {
	// Stream the current range against the simulated keys: the scan stops
	// at the first divergence instead of materializing the whole range.
	it := state.GetRange(rr.StartKey, rr.EndKey)
	defer it.Close()
	for i := 0; ; i++ {
		kv, ok := it.Next()
		if !ok {
			if i != len(rr.Keys) {
				return fmt.Errorf("rwset: phantom in range [%q,%q): %d keys now vs %d simulated",
					rr.StartKey, rr.EndKey, i, len(rr.Keys))
			}
			return nil
		}
		if i >= len(rr.Keys) {
			return fmt.Errorf("rwset: phantom in range [%q,%q): more keys now than %d simulated",
				rr.StartKey, rr.EndKey, len(rr.Keys))
		}
		if kv.Key != rr.Keys[i] {
			return fmt.Errorf("rwset: phantom in range [%q,%q): key %q != simulated %q",
				rr.StartKey, rr.EndKey, kv.Key, rr.Keys[i])
		}
		if blockWrites[kv.Key] {
			return fmt.Errorf("rwset: mvcc conflict in range on %q: written earlier in block", kv.Key)
		}
	}
}

// validateQuery is the rich-query phantom check. When the committing state
// database can execute rich queries, the query is re-run and its key set
// compared against the simulated one; otherwise (plain LevelDB-flavour
// store) the observed keys are checked against earlier-in-block writes,
// matching Fabric's weaker guarantees for rich queries on CouchDB.
func validateQuery(qr QueryRead, state statedb.StateDB, blockWrites map[string]bool) error {
	for _, key := range qr.Keys {
		if blockWrites[key] {
			return fmt.Errorf("rwset: mvcc conflict in query on %q: written earlier in block", key)
		}
	}
	rq, ok := state.(statedb.RichQueryer)
	if !ok {
		return nil
	}
	res, err := rq.ExecuteQuery(qr.Query)
	if err != nil {
		return fmt.Errorf("rwset: re-execute query: %w", err)
	}
	if len(res.KVs) != len(qr.Keys) {
		return fmt.Errorf("rwset: phantom in query: %d keys now vs %d simulated",
			len(res.KVs), len(qr.Keys))
	}
	for i, kv := range res.KVs {
		if kv.Key != qr.Keys[i] {
			return fmt.Errorf("rwset: phantom in query: key %q != simulated %q", kv.Key, qr.Keys[i])
		}
	}
	return nil
}
