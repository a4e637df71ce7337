package provenance

import (
	"encoding/json"
	"strings"

	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// This file implements the extended query surface beyond the paper's core
// operator set: prefix listing with pagination, creator-index lookups, and
// metadata filtering. These back the domain-specific provenance systems the
// paper expects to plug in through the client library.

// Extended function names accepted by Invoke.
const (
	FnList         = "list"         // list records by key prefix, paginated
	FnGetByCreator = "getByCreator" // all records posted by a creator
	FnQueryMeta    = "queryMeta"    // records whose meta[k] == v
	FnGetChildren  = "getChildren"  // direct children only (one edge level)
	FnVersion      = "version"      // chaincode version string
)

// Version is the deployed contract version, bumped by upgrades.
const Version = "1.2.0"

// listArgs is the JSON argument to FnList.
type listArgs struct {
	// Prefix restricts the listing to keys with this prefix ("" = all).
	Prefix string `json:"prefix,omitempty"`
	// After resumes listing after this key (exclusive bookmark).
	After string `json:"after,omitempty"`
	// Limit caps the page size (default and max 100).
	Limit int `json:"limit,omitempty"`
}

// ListPage is the result of FnList.
type ListPage struct {
	Records []Record `json:"records"`
	// Next is the bookmark to pass as After for the next page; empty when
	// the listing is exhausted.
	Next string `json:"next,omitempty"`
}

const maxListLimit = 100

// list returns a paginated key-ordered listing of records under a prefix.
// Pagination keeps the read cost of large provenance stores bounded, which
// matters on RPi-class peers.
func (cc *Chaincode) list(stub *shim.Stub) shim.Response {
	args := stub.Args()
	if len(args) != 1 {
		return shim.Errorf("list: want 1 JSON arg, got %d", len(args))
	}
	var in listArgs
	if err := json.Unmarshal(args[0], &in); err != nil {
		return shim.Errorf("list: bad args: %v", err)
	}
	if in.Limit <= 0 || in.Limit > maxListLimit {
		in.Limit = maxListLimit
	}
	start := in.Prefix
	if in.After != "" {
		// Resume strictly after the bookmark.
		start = in.After + "\x01"
	}
	end := ""
	if in.Prefix != "" {
		end = in.Prefix + "\xff"
	}
	// Each state page asks for exactly what the listing still lacks, so the
	// read — and the phantom window recorded for it — is O(limit), not
	// O(range). A second page is fetched only when the first held entries
	// the listing skips.
	var records [][]byte
	next, bookmark := "", ""
	for len(records) < in.Limit {
		kvs, more, err := stub.GetStateByRangeWithPagination(start, end, in.Limit-len(records), bookmark)
		if err != nil {
			return shim.Errorf("list: %v", err)
		}
		for _, kv := range kvs {
			if !strings.HasPrefix(kv.Key, in.Prefix) || !richquery.IsObject(kv.Value) {
				continue // the latter: non-record plain key (none today, defensive)
			}
			records = append(records, kv.Value)
			if len(records) == in.Limit {
				next = kv.Key // necessarily the page's last entry
			}
		}
		if more == "" {
			break
		}
		bookmark = more
	}
	return shim.Success(pagePayload(records, next))
}

// getByCreator returns every record whose creator matches args[0] (the
// display creator subject recorded on the records). Served by the rich-
// query engine through the by-display-creator index; before the rich-query
// subsystem this needed a hand-maintained composite-key index per record.
func (cc *Chaincode) getByCreator(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 1 {
		return shim.Errorf("getByCreator: want 1 arg, got %d", len(args))
	}
	return cc.fieldQuery(stub, "creator", args[0])
}

// queryMeta returns records whose metadata field args[0] equals args[1].
// Served by the rich-query engine (indexed for meta.type, filtered scan for
// other metadata fields); before the rich-query subsystem this was always a
// full chaincode-level scan. Two cases keep the scan path: metadata keys
// containing "." or "$" cannot be addressed as selector paths, and an empty
// value has always matched records *lacking* the key (a map read of a
// missing key yields ""), which a selector condition cannot express.
func (cc *Chaincode) queryMeta(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 2 {
		return shim.Errorf("queryMeta: want 2 args (key, value), got %d", len(args))
	}
	if strings.ContainsAny(args[0], ".$") || args[1] == "" {
		return cc.queryMetaScan(stub, args[0], args[1])
	}
	return cc.fieldQuery(stub, "meta."+args[0], args[1])
}

// queryMetaScan is the pre-rich-query scan path, kept for metadata keys the
// selector language cannot address.
func (cc *Chaincode) queryMetaScan(stub *shim.Stub, key, value string) shim.Response {
	kvs, err := stub.GetStateByRange("", "")
	if err != nil {
		return shim.Errorf("queryMeta: %v", err)
	}
	out := make([][]byte, 0, 8)
	for _, kv := range kvs {
		var meta map[string]string
		err := readFields(kv.Value, func(d *decoder, _ string) error { return d.stringMap(&meta) }, "meta")
		if err == nil && meta[key] == value {
			out = append(out, kv.Value)
		}
	}
	return shim.Success(appendRecords(nil, out))
}

// getChildren returns only the direct children of args[0] (one edge level),
// cheaper than the transitive getDescendants.
func (cc *Chaincode) getChildren(stub *shim.Stub) shim.Response {
	args := stub.StringArgs()
	if len(args) != 1 {
		return shim.Errorf("getChildren: want 1 arg, got %d", len(args))
	}
	records, err := cc.walkDescendants(stub, args[0], 1)
	if err != nil {
		return shim.Errorf("getChildren: %v", err)
	}
	return shim.Success(appendRecords(nil, append([][]byte{}, records...))) // none is [], not null
}

// version reports the deployed contract version.
func (cc *Chaincode) version(stub *shim.Stub) shim.Response {
	return shim.Success([]byte(Version))
}
