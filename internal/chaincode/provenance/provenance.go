// Package provenance implements the HyperProv chaincode: the smart contract
// that stores provenance metadata (checksum, off-chain data location,
// creator certificate, parent lineage, custom metadata) in the ledger and
// answers the paper's built-in provenance queries — record retrieval,
// per-key history, checksum lookup, and lineage traversal in both
// directions.
package provenance

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"time"

	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// ChaincodeName is the name the contract is deployed under.
const ChaincodeName = "hyperprov"

// Function names accepted by Invoke.
const (
	FnSet            = "set"            // Post: write a provenance record
	FnGet            = "get"            // Get: read the latest record for a key
	FnGetHistory     = "getHistory"     // GetKeyHistory: all versions of a key
	FnGetByChecksum  = "getByChecksum"  // reverse lookup checksum -> key
	FnGetLineage     = "getLineage"     // ancestors (transitive parents)
	FnGetDescendants = "getDescendants" // reverse lineage (items derived from key)
	FnDelete         = "delete"         // tombstone a record
	FnGetStats       = "getStats"       // record/edge counters
)

// State key prefixes. Records live under plain keys so range queries work;
// indexes use composite keys. There is deliberately no global counter key:
// a read-modify-write hot key would make every pair of concurrent Posts
// MVCC-conflict (stats are computed by range scan instead).
const (
	idxChecksum = "cs"   // checksum -> key
	idxChild    = "edge" // (parent, child) edges for descendant queries
)

// maxLineageDepth bounds lineage traversal; provenance DAGs in the paper's
// workloads are shallow, and the bound keeps malicious cycles from looping.
const maxLineageDepth = 64

// Record is the on-chain provenance record (§3 of the paper: checksum,
// data location, creator certificate, parent items, custom metadata).
type Record struct {
	Key      string `json:"key"`
	Checksum string `json:"checksum"`
	Location string `json:"location,omitempty"`
	// Creator is the display identity recorded for provenance queries.
	Creator string `json:"creator"`
	// Owner is the verified wire identity that may update or delete the
	// record (see acl.go); it equals Creator unless the client supplied a
	// custom display creator.
	Owner     string            `json:"owner,omitempty"`
	Parents   []string          `json:"parents,omitempty"`
	Meta      map[string]string `json:"meta,omitempty"`
	TxID      string            `json:"txid"`
	Timestamp time.Time         `json:"timestamp"`
	// TSMillis is Timestamp as integer Unix milliseconds. RFC 3339 strings
	// do not collate correctly across fractional-second precision, so time
	//-window rich queries (and the by-time index) use this field instead.
	TSMillis int64 `json:"ts"`
}

// HistoryRecord is one historical version of a record.
type HistoryRecord struct {
	Record   *Record   `json:"record,omitempty"`
	TxID     string    `json:"txId"`
	IsDelete bool      `json:"isDelete,omitempty"`
	BlockNum uint64    `json:"blockNum"`
	Time     time.Time `json:"timestamp"`
}

// Stats summarizes the contract's stored volume.
type Stats struct {
	Records uint64 `json:"records"`
}

// The read functions forward records as the bytes set stored: decoding one
// into Record and encoding it again yields those same bytes, so payloads are
// spliced from stored values (which alias committed state: copied, never
// written to) and only the client decodes. A stored value is spliced once
// richquery.IsObject, or a read of one of its fields (readFields), has
// checked all of it.

// appendRecords appends the JSON array of the given stored records to dst,
// rendering a nil slice as null and an empty one as [] like json.Marshal.
func appendRecords(dst []byte, records [][]byte) []byte {
	if records == nil {
		return append(dst, "null"...)
	}
	n := len(records) + 2
	for _, r := range records {
		n += len(r)
	}
	dst = append(slices.Grow(dst, n), '[')
	for i, r := range records {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, r...)
	}
	return append(dst, ']')
}

// pagePayload renders a ListPage / QueryPage of the given stored records.
func pagePayload(records [][]byte, next string) []byte {
	out := appendRecords([]byte(`{"records":`), records)
	if next != "" {
		out = appendString(append(out, `,"next":`...), next)
	}
	return append(out, '}')
}

// appendString appends s as the JSON string json.Marshal renders: itself in
// quotes when it holds nothing json.Marshal escapes.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// Chaincode is the HyperProv contract.
type Chaincode struct{}

var _ shim.Chaincode = (*Chaincode)(nil)

// New returns the HyperProv chaincode.
func New() *Chaincode { return &Chaincode{} }

// Init instantiates the contract. HyperProv needs no seed state; the
// instantiation transaction itself lands on the ledger as the deployment
// record.
func (cc *Chaincode) Init(stub *shim.Stub) shim.Response {
	if err := stub.SetEvent("provenance.init", []byte(stub.ChannelID())); err != nil {
		return shim.Errorf("init: %v", err)
	}
	return shim.Success(nil)
}

// Invoke dispatches on the function name.
func (cc *Chaincode) Invoke(stub *shim.Stub) shim.Response {
	switch stub.Function() {
	case FnSet:
		return cc.set(stub)
	case FnGet:
		return cc.get(stub)
	case FnGetHistory:
		return cc.getHistory(stub)
	case FnGetByChecksum:
		return cc.getByChecksum(stub)
	case FnGetLineage:
		return cc.getLineage(stub)
	case FnGetDescendants:
		return cc.getDescendants(stub)
	case FnDelete:
		return cc.delete(stub)
	case FnGetStats:
		return cc.getStats(stub)
	case FnList:
		return cc.list(stub)
	case FnGetByCreator:
		return cc.getByCreator(stub)
	case FnQueryMeta:
		return cc.queryMeta(stub)
	case FnGetChildren:
		return cc.getChildren(stub)
	case FnVersion:
		return cc.version(stub)
	case FnRichQuery:
		return cc.richQuery(stub)
	case FnGetByOwner:
		return cc.getByOwner(stub)
	case FnGetByType:
		return cc.getByType(stub)
	case FnGetByTimeRange:
		return cc.getByTimeRange(stub)
	default:
		return shim.Errorf("unknown function %q", stub.Function())
	}
}

// setArgs is the JSON argument to FnSet.
type setArgs struct {
	Key      string            `json:"key"`
	Checksum string            `json:"checksum"`
	Location string            `json:"location,omitempty"`
	Parents  []string          `json:"parents,omitempty"`
	Meta     map[string]string `json:"meta,omitempty"`
	Creator  string            `json:"creator,omitempty"` // display form; wire identity comes from stub
}

// set writes a provenance record: args[0] is a JSON-encoded setArgs.
func (cc *Chaincode) set(stub *shim.Stub) shim.Response {
	args := stub.Args()
	if len(args) != 1 {
		return shim.Errorf("set: want 1 JSON arg, got %d", len(args))
	}
	var in setArgs
	if err := json.Unmarshal(args[0], &in); err != nil {
		return shim.Errorf("set: bad args: %v", err)
	}
	if in.Key == "" {
		return shim.Errorf("set: empty key")
	}
	if in.Checksum == "" {
		return shim.Errorf("set: empty checksum")
	}
	// Every parent must already have a provenance record: lineage cannot
	// reference unknown items.
	for _, p := range in.Parents {
		if p == in.Key {
			return shim.Errorf("set: record %q lists itself as parent", in.Key)
		}
		pv, err := stub.GetState(p)
		if err != nil {
			return shim.Errorf("set: read parent %q: %v", p, err)
		}
		if pv == nil {
			return shim.Errorf("set: parent %q has no provenance record", p)
		}
	}

	// Read the current version first: this puts the key in the read set,
	// so concurrent updates of the same item serialize (one wins per
	// block), while writes to distinct items never conflict. It also
	// drives the ownership check below.
	existing, err := stub.GetState(in.Key)
	if err != nil {
		return shim.Errorf("set: read %q: %v", in.Key, err)
	}
	client := stub.Client()
	oldChecksum, err := authorizeMutation(existing, client)
	if err != nil {
		return shim.Errorf("set: %v", err)
	}

	rec := Record{
		Key:       in.Key,
		Checksum:  in.Checksum,
		Location:  in.Location,
		Creator:   in.Creator,
		Owner:     client.Subject,
		Parents:   in.Parents,
		Meta:      in.Meta,
		TxID:      stub.TxID(),
		Timestamp: stub.TxTimestamp(),
		TSMillis:  stub.TxTimestamp().UnixMilli(),
	}
	if rec.Creator == "" {
		rec.Creator = client.Subject
	}
	raw, err := json.Marshal(&rec)
	if err != nil {
		return shim.Errorf("set: marshal record: %v", err)
	}
	if err := stub.PutState(in.Key, raw); err != nil {
		return shim.Errorf("set: write %q: %v", in.Key, err)
	}

	// checksum -> key index for getByChecksum; a rewrite that changes the
	// checksum retires the entry of the one it replaces.
	if oldChecksum != "" && oldChecksum != in.Checksum {
		if err := retireChecksum(stub, oldChecksum, in.Key); err != nil {
			return shim.Errorf("set: checksum index: %v", err)
		}
	}
	csKey, err := stub.CreateCompositeKey(idxChecksum, []string{in.Checksum})
	if err != nil {
		return shim.Errorf("set: checksum index: %v", err)
	}
	if err := stub.PutState(csKey, []byte(in.Key)); err != nil {
		return shim.Errorf("set: checksum index write: %v", err)
	}
	// Creator and owner lookups are served by the state database's
	// secondary indexes (see Indexes), so no per-record creator index
	// entries are written.
	// parent -> child edges for getDescendants.
	for _, p := range in.Parents {
		edge, err := stub.CreateCompositeKey(idxChild, []string{p, in.Key})
		if err != nil {
			return shim.Errorf("set: edge index: %v", err)
		}
		if err := stub.PutState(edge, []byte{1}); err != nil {
			return shim.Errorf("set: edge write: %v", err)
		}
	}

	if err := stub.SetEvent("provenance.set", []byte(in.Key)); err != nil {
		return shim.Errorf("set: event: %v", err)
	}
	return shim.Success(raw)
}

// get returns the latest record for args[0] (a key).
func (cc *Chaincode) get(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 1 {
		return shim.Errorf("get: want 1 arg, got %d", len(args))
	}
	raw, err := stub.GetState(args[0])
	if err != nil {
		return shim.Errorf("get: %v", err)
	}
	if raw == nil {
		return shim.Errorf("get: key %q not found", args[0])
	}
	return shim.Success(raw)
}

// getHistory returns every committed version of args[0] as a JSON array of
// HistoryRecord, oldest first.
func (cc *Chaincode) getHistory(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 1 {
		return shim.Errorf("getHistory: want 1 arg, got %d", len(args))
	}
	entries, err := stub.GetHistoryForKey(args[0])
	if err != nil {
		return shim.Errorf("getHistory: %v", err)
	}
	payload, err := historyPayload(entries)
	if err != nil {
		return shim.Errorf("getHistory: marshal: %v", err)
	}
	return shim.Success(payload)
}

// historyPayload renders entries as json.Marshal renders []HistoryRecord —
// the same members in the same order — around each record as the bytes the
// ledger stored, in one buffer sized for all of it (the members besides
// record and txId come to under 128 bytes).
func historyPayload(entries []shim.HistoryEntry) ([]byte, error) {
	size := 2
	for _, e := range entries {
		size += len(e.Value) + len(e.TxID) + 128
	}
	out := append(make([]byte, 0, size), '[')
	for i, e := range entries {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, '{')
		if !e.IsDelete && richquery.IsObject(e.Value) {
			out = append(append(append(out, `"record":`...), e.Value...), ',')
		}
		out = appendString(append(out, `"txId":`...), e.TxID)
		if e.IsDelete {
			out = append(out, `,"isDelete":true`...)
		}
		out = strconv.AppendUint(append(out, `,"blockNum":`...), e.BlockNum, 10)
		var err error
		if out, err = e.Timestamp.AppendText(append(out, `,"timestamp":"`...)); err != nil {
			return nil, err
		}
		out = append(out, `"}`...)
	}
	return append(out, ']'), nil
}

// getByChecksum resolves a checksum (args[0]) to its record.
func (cc *Chaincode) getByChecksum(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 1 {
		return shim.Errorf("getByChecksum: want 1 arg, got %d", len(args))
	}
	csKey, err := stub.CreateCompositeKey(idxChecksum, []string{args[0]})
	if err != nil {
		return shim.Errorf("getByChecksum: %v", err)
	}
	keyRaw, err := stub.GetState(csKey)
	if err != nil {
		return shim.Errorf("getByChecksum: %v", err)
	}
	if keyRaw == nil {
		return shim.Errorf("getByChecksum: checksum %q not found", args[0])
	}
	raw, err := stub.GetState(string(keyRaw))
	if err != nil {
		return shim.Errorf("getByChecksum: read record: %v", err)
	}
	if raw == nil {
		return shim.Errorf("getByChecksum: dangling index for %q", args[0])
	}
	// An entry a rewrite left behind (ledgers written before set retired
	// them) reaches a record that has moved on to another checksum.
	var checksum string
	err = readFields(raw, func(d *decoder, _ string) error { return d.str(&checksum) }, "checksum")
	if err != nil {
		return shim.Errorf("getByChecksum: corrupt record %q: %v", keyRaw, err)
	}
	if checksum != args[0] {
		return shim.Errorf("getByChecksum: checksum %q not found", args[0])
	}
	return shim.Success(raw)
}

// retireChecksum removes checksum's index entry if it resolves to key: the
// entry of a checksum two live records share belongs to the last one written.
func retireChecksum(stub *shim.Stub, checksum, key string) error {
	csKey, err := stub.CreateCompositeKey(idxChecksum, []string{checksum})
	if err != nil {
		return err
	}
	holder, err := stub.GetState(csKey)
	if err != nil || string(holder) != key {
		return err
	}
	return stub.DelState(csKey)
}

// getLineage returns the ancestor records of args[0] (breadth-first over
// parents, the key itself first) as a JSON array of Record.
func (cc *Chaincode) getLineage(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 1 {
		return shim.Errorf("getLineage: want 1 arg, got %d", len(args))
	}
	records, err := cc.walkAncestors(stub, args[0])
	if err != nil {
		return shim.Errorf("getLineage: %v", err)
	}
	return shim.Success(appendRecords(nil, records))
}

// walkAncestors collects the stored records of start and its ancestors,
// decoding of each only the parents that drive the traversal. Each record is
// read as a view (GetStateView): the reply is its one copy.
func (cc *Chaincode) walkAncestors(stub *shim.Stub, start string) ([][]byte, error) {
	seen := map[string]bool{start: true}
	frontier := []string{start}
	var out [][]byte
	var parents [][]byte
	var d decoder
	read := func(string) error { return array(&d, &parents, 0, (*decoder).view) }
	for depth := 0; len(frontier) > 0 && depth < maxLineageDepth; depth++ {
		var next []string
		for _, key := range frontier {
			raw, err := stub.GetStateView(key)
			if err != nil {
				return nil, err
			}
			if raw == nil {
				if key == start {
					return nil, fmt.Errorf("key %q not found", start)
				}
				continue // parent tombstoned; lineage continues past it
			}
			// The parents are views of raw. A key new to seen is copied once,
			// and that copy is both the map key and the frontier entry; a
			// string over the whole record would cost its size again.
			clear(parents[:cap(parents)])
			parents = parents[:0]
			err = d.fields(raw, read, "parents")
			if err != nil {
				return nil, fmt.Errorf("corrupt record %q: %w", key, err)
			}
			out = append(out, raw)
			for _, p := range parents {
				if !seen[string(p)] {
					p := string(p)
					seen[p] = true
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	return out, nil
}

// getDescendants returns the records derived (transitively) from args[0],
// excluding the key itself, as a JSON array of Record.
func (cc *Chaincode) getDescendants(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 1 {
		return shim.Errorf("getDescendants: want 1 arg, got %d", len(args))
	}
	records, err := cc.walkDescendants(stub, args[0], maxLineageDepth)
	if err != nil {
		return shim.Errorf("getDescendants: %v", err)
	}
	return shim.Success(appendRecords(nil, records))
}

// walkDescendants collects the stored records reachable from start over at
// most maxDepth child edges, breadth-first, start excluded. Like the edges,
// each record is read as a view; the reply is its one copy.
func (cc *Chaincode) walkDescendants(stub *shim.Stub, start string, maxDepth int) ([][]byte, error) {
	seen := map[string]bool{start: true}
	frontier := []string{start}
	var out [][]byte
	for depth := 0; len(frontier) > 0 && depth < maxDepth; depth++ {
		var next []string
		for _, key := range frontier {
			kvs, err := stub.GetStateByPartialCompositeKey(idxChild, []string{key})
			if err != nil {
				return nil, err
			}
			for _, kv := range kvs {
				_, attrs, err := stub.SplitCompositeKey(kv.Key)
				if err != nil || len(attrs) != 2 {
					return nil, fmt.Errorf("corrupt edge %q", kv.Key)
				}
				child := attrs[1]
				if seen[child] {
					continue
				}
				seen[child] = true
				raw, err := stub.GetStateView(child)
				if err != nil {
					return nil, fmt.Errorf("read %q: %v", child, err)
				}
				if raw == nil {
					continue
				}
				if !richquery.IsObject(raw) {
					return nil, fmt.Errorf("corrupt record %q: not a JSON object", child)
				}
				out = append(out, raw)
				next = append(next, child)
			}
		}
		frontier = next
	}
	return out, nil
}

// delete tombstones the record for args[0]. History is preserved; the
// checksum index entry is removed if it is this record's.
func (cc *Chaincode) delete(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 1 {
		return shim.Errorf("delete: want 1 arg, got %d", len(args))
	}
	raw, err := stub.GetState(args[0])
	if err != nil {
		return shim.Errorf("delete: %v", err)
	}
	if raw == nil {
		return shim.Errorf("delete: key %q not found", args[0])
	}
	checksum, err := authorizeMutation(raw, stub.Client())
	if err != nil {
		return shim.Errorf("delete: %v", err)
	}
	if err := stub.DelState(args[0]); err != nil {
		return shim.Errorf("delete: %v", err)
	}
	if checksum != "" {
		if err := retireChecksum(stub, checksum, args[0]); err != nil {
			return shim.Errorf("delete: checksum index: %v", err)
		}
	}
	return shim.Success(nil)
}

// getStats counts live records with a full range scan. It is a read-only
// query (run via Evaluate, never submitted), so the phantom-protecting
// range read it records is never validated against later blocks.
func (cc *Chaincode) getStats(stub *shim.Stub) shim.Response {
	kvs, err := stub.GetStateByRange("", "")
	if err != nil {
		return shim.Errorf("getStats: %v", err)
	}
	payload, err := json.Marshal(Stats{Records: uint64(len(kvs))})
	if err != nil {
		return shim.Errorf("getStats: marshal: %v", err)
	}
	return shim.Success(payload)
}
