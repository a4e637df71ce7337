package statedb

import "github.com/hyperprov/hyperprov/internal/richquery"

// Iterator streams ordered state entries. Next returns the next entry in
// key order until the range is exhausted; Close ends the scan early and
// releases any backing snapshot (Next closes the iterator itself on
// exhaustion, and Close is idempotent). Streaming plus early termination is
// what makes range scans cost O(log n + results read) instead of
// materializing and sorting the whole keyspace.
type Iterator interface {
	Next() (KV, bool)
	Close()
}

// StateReader is the read-only surface shared by live stores and their
// snapshots, rich queries included: every reader answers a parsed query, so
// a chaincode stub depends on nothing else.
type StateReader interface {
	// Get returns the committed value and version for key.
	Get(key string) (VersionedValue, bool)
	// GetVersion returns only the version for key.
	GetVersion(key string) (Version, bool)
	// GetRange streams committed entries with startKey <= key < endKey.
	GetRange(startKey, endKey string) Iterator
	// GetByPartialCompositeKey streams composite keys matching the prefix.
	GetByPartialCompositeKey(objectType string, attrs []string) (Iterator, error)
	// ExecuteQuery answers a parsed Mango query (see richquery.ParseQuery)
	// with one result page at one batch boundary. The caller parses; the
	// reader never re-parses what it is handed.
	ExecuteQuery(q *richquery.Query) (*QueryResult, error)
}

// Snapshot is a height-stamped consistent read view at a batch boundary.
// Holding one never blocks ApplyUpdates: the store preserves overwritten
// values into outstanding snapshots copy-on-write, and each read takes the
// store's lock only for that read. Release when done.
type Snapshot interface {
	StateReader
	// Height returns the commit height the snapshot was taken at.
	Height() Version
	// Len returns the number of live keys at the boundary.
	Len() int
	// All streams every live key (composite keys included) in key order.
	All() Iterator
	// Materialize deep-copies the view into the flat map form the
	// checkpoint codec and state transfer serialize.
	Materialize() map[string]VersionedValue
	// Release detaches the view; it must not be read afterwards.
	Release()
}

// StateDB is the world-state interface the committer commits to. The Store
// and the ReferenceStore oracle implement it; the committer, rwset
// validation and the recovery manager depend only on this interface (a
// chaincode stub only on StateReader), so the oracle can stand in for the
// Store in their tests — rich-query phantom checks included, since both
// re-execute a query read — mirroring Fabric's VersionedDB seam. A peer
// holds a Store.
type StateDB interface {
	StateReader
	// Height returns the version of the last applied update batch.
	Height() Version
	// ApplyUpdates applies a batch atomically at the given commit height.
	ApplyUpdates(batch *UpdateBatch, height Version) error
	// Len returns the number of live keys.
	Len() int
	// Snapshot returns a consistent read view at the current boundary.
	Snapshot() Snapshot
	// Export returns a deep copy of the live state as a flat map.
	Export() map[string]VersionedValue
	// Restore replaces the live state with a snapshot at the given height.
	Restore(snap map[string]VersionedValue, height Version)
}

// QueryResult is one page of a rich query.
type QueryResult struct {
	// KVs are the matching entries in result order.
	KVs []KV
	// Bookmark resumes the query on the next page; empty when exhausted.
	Bookmark string
}

// Compile-time interface checks.
var (
	_ StateDB  = (*Store)(nil)
	_ StateDB  = (*ReferenceStore)(nil)
	_ Snapshot = (*storeSnapshot)(nil)
	_ Snapshot = (*frozenSnapshot)(nil)
)
