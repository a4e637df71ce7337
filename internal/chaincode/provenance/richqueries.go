package provenance

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// This file implements the rich provenance queries served from the state
// database's Mango engine: raw selector queries plus the three lookups the
// paper leans on CouchDB for — records by owner, by type, and by time
// window. The chaincode declares the secondary indexes it needs; the peer
// builds and maintains them at commit time, so none of these queries scans
// the full state.

// Rich-query function names accepted by Invoke.
const (
	FnRichQuery      = "richQuery"      // raw Mango query pass-through
	FnGetByOwner     = "getByOwner"     // records owned by a wire identity
	FnGetByType      = "getByType"      // records whose meta.type matches
	FnGetByTimeRange = "getByTimeRange" // records in [from, to) by tx time
)

// MetaType is the metadata key that types a record ("raw", "aggregate",
// model names, ...). getByType queries it; domain pipelines set it.
const MetaType = "type"

// Indexes declares the secondary indexes the contract's rich queries rely
// on — the analog of the CouchDB index definitions a Fabric chaincode
// package ships in META-INF/statedb. The peer applies them at install time.
func (cc *Chaincode) Indexes() []richquery.IndexDef {
	return []richquery.IndexDef{
		{Name: "by-owner", Field: "owner"},
		{Name: "by-display-creator", Field: "creator"},
		{Name: "by-type", Field: "meta." + MetaType},
		{Name: "by-time", Field: "ts"},
	}
}

// QueryPage is one page of a rich query result.
type QueryPage struct {
	Records []Record `json:"records"`
	// Next is the bookmark for the following page; empty when exhausted.
	Next string `json:"next,omitempty"`
}

// richQuery runs a raw Mango query. args[0] is the query document (selector
// plus optional sort/limit/bookmark); an optional args[1] page size and
// args[2] bookmark switch on explicit pagination.
func (cc *Chaincode) richQuery(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 1 && len(args) != 3 {
		return shim.Errorf("richQuery: want 1 arg (query) or 3 (query, pageSize, bookmark), got %d", len(args))
	}
	if len(args) == 3 {
		pageSize, err := strconv.Atoi(args[1])
		if err != nil || pageSize <= 0 {
			return shim.Errorf("richQuery: bad page size %q", args[1])
		}
		kvs, next, err := stub.GetQueryResultWithPagination(args[0], pageSize, args[2])
		if err != nil {
			return shim.Errorf("richQuery: %v", err)
		}
		return shim.Success(pagePayload(queryRecords(kvs), next))
	}
	kvs, err := stub.GetQueryResult(args[0])
	if err != nil {
		return shim.Errorf("richQuery: %v", err)
	}
	return shim.Success(pagePayload(queryRecords(kvs), ""))
}

// getByOwner returns every live record owned by the wire identity args[0],
// served from the by-owner index.
func (cc *Chaincode) getByOwner(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 1 {
		return shim.Errorf("getByOwner: want 1 arg, got %d", len(args))
	}
	return cc.fieldQuery(stub, "owner", args[0])
}

// getByType returns every live record whose meta.type equals args[0],
// served from the by-type index.
func (cc *Chaincode) getByType(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 1 {
		return shim.Errorf("getByType: want 1 arg, got %d", len(args))
	}
	return cc.fieldQuery(stub, "meta."+MetaType, args[0])
}

// getByTimeRange returns records whose transaction timestamp lies in
// [args[0], args[1]) — RFC 3339 times — ordered oldest first, served from
// the by-time index over the record's millisecond timestamp field.
func (cc *Chaincode) getByTimeRange(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 2 {
		return shim.Errorf("getByTimeRange: want 2 args (from, to), got %d", len(args))
	}
	from, err := time.Parse(time.RFC3339, args[0])
	if err != nil {
		return shim.Errorf("getByTimeRange: bad from time: %v", err)
	}
	to, err := time.Parse(time.RFC3339, args[1])
	if err != nil {
		return shim.Errorf("getByTimeRange: bad to time: %v", err)
	}
	query := map[string]any{
		"selector": map[string]any{
			"ts": map[string]any{"$gte": from.UnixMilli(), "$lt": to.UnixMilli()},
		},
		"sort": []any{map[string]string{"ts": "asc"}},
	}
	raw, err := json.Marshal(query)
	if err != nil {
		return shim.Errorf("getByTimeRange: marshal query: %v", err)
	}
	kvs, err := stub.GetQueryResult(string(raw))
	if err != nil {
		return shim.Errorf("getByTimeRange: %v", err)
	}
	return shim.Success(appendRecords(nil, queryRecords(kvs)))
}

// fieldQuery runs an equality rich query on one field and returns the
// matching records as a JSON array.
func (cc *Chaincode) fieldQuery(stub *shim.Stub, field, value string) shim.Response {
	raw, err := equalitySelector(field, value)
	if err != nil {
		return shim.Errorf("query %s: %v", field, err)
	}
	kvs, err := stub.GetQueryResult(raw)
	if err != nil {
		return shim.Errorf("query %s: %v", field, err)
	}
	return shim.Success(appendRecords(nil, queryRecords(kvs)))
}

// equalitySelector builds {"selector": {field: {"$eq": value}}}.
func equalitySelector(field, value string) (string, error) {
	raw, err := json.Marshal(map[string]any{
		"selector": map[string]any{field: map[string]any{"$eq": value}},
	})
	if err != nil {
		return "", fmt.Errorf("marshal selector: %w", err)
	}
	return string(raw), nil
}

// queryRecords returns the stored values of a rich-query result. The state
// database has parsed each one: only a value that decoded as a JSON object
// is indexed or matches a selector, so the object test suffices.
func queryRecords(kvs []statedb.KV) [][]byte {
	out := make([][]byte, 0, len(kvs))
	for _, kv := range kvs {
		if len(kv.Value) > 0 && kv.Value[0] == '{' {
			out = append(out, kv.Value)
		}
	}
	return out
}
