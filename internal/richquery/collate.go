// Package richquery implements a CouchDB/Mango-flavoured rich-query engine
// over JSON documents: a selector language ($eq, $gt, $gte, $lt, $lte, $in,
// $and, $or, $regex, and implicit-AND field matches), sort, limit, and
// bookmark-based pagination, plus secondary field indexes with a planner
// that serves a query from an index when the selector constrains an indexed
// field and falls back to a filtered scan otherwise. It is the engine behind
// the CouchDB-style state database that makes HyperProv's provenance
// queries (by owner, by type, by time window) practical without full scans.
//
// The package is self-contained: it knows nothing about the ledger. Values
// are stored JSON documents, read as bytes: Extract pulls the fields a
// selector, a sort or an index names out of one in a single scan, without
// building the document. Callers (the state database) supply candidate
// documents and receive ordered keys back.
package richquery

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"sort"
)

// Type ranks of the collation order, mirroring CouchDB's view collation:
// null < false < true < numbers < strings < arrays < objects.
const (
	rankNull = iota
	rankFalse
	rankTrue
	rankNumber
	rankString
	rankArray
	rankObject
)

func typeRank(v any) int {
	switch t := v.(type) {
	case nil:
		return rankNull
	case bool:
		if t {
			return rankTrue
		}
		return rankFalse
	case float64:
		return rankNumber
	case string:
		return rankString
	case []any:
		return rankArray
	default: // map[string]any
		return rankObject
	}
}

// Compare orders two JSON values by CouchDB collation rules. It returns
// -1, 0, or 1. Arrays compare elementwise (shorter first on a tie); objects
// compare by sorted key, then value. A value is what encoding/json decodes
// into an any — nil, bool, float64, string, []any or map[string]any — as
// ParseSelector's operands and Extract's values are.
func Compare(a, b any) int {
	ra, rb := typeRank(a), typeRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case rankNull, rankFalse, rankTrue:
		return 0
	case rankNumber:
		fa, fb := a.(float64), b.(float64)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	case rankString:
		sa, sb := a.(string), b.(string)
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		default:
			return 0
		}
	case rankArray:
		aa, ba := a.([]any), b.([]any)
		for i := 0; i < len(aa) && i < len(ba); i++ {
			if c := Compare(aa[i], ba[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(aa) < len(ba):
			return -1
		case len(aa) > len(ba):
			return 1
		default:
			return 0
		}
	default: // objects: compare by sorted key/value pairs
		ma, mb := a.(map[string]any), b.(map[string]any)
		ka, kb := sortedKeys(ma), sortedKeys(mb)
		for i := 0; i < len(ka) && i < len(kb); i++ {
			if ka[i] != kb[i] {
				if ka[i] < kb[i] {
					return -1
				}
				return 1
			}
			if c := Compare(ma[ka[i]], mb[kb[i]]); c != 0 {
				return c
			}
		}
		switch {
		case len(ka) < len(kb):
			return -1
		case len(ka) > len(kb):
			return 1
		default:
			return 0
		}
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EncodeKey renders a JSON value as a byte string whose lexicographic order
// matches Compare for scalar values (null, booleans, numbers, strings).
// Index entries are stored under these keys, which is what lets the planner
// turn a selector's comparison operators into an index range scan. Arrays
// and objects get a stable per-type encoding (tag + JSON) that keeps them in
// their collation band but is only scalar-consistent, which is sufficient:
// the planner derives range bounds from scalar operands only. The two
// float zeros are one number to Compare, so they get one encoding.
func EncodeKey(v any) string {
	var buf [64]byte
	return string(appendKey(buf[:0], v))
}

// appendKey appends EncodeKey(v) to dst.
func appendKey(dst []byte, v any) []byte {
	switch t := v.(type) {
	case nil:
		return append(dst, rankNull)
	case bool:
		if t {
			return append(dst, rankTrue)
		}
		return append(dst, rankFalse)
	case float64:
		if t == 0 {
			t = 0 // -0.0 == 0.0: drop the sign bit
		}
		bits := math.Float64bits(t)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip everything so bigger magnitude sorts first
		} else {
			bits |= 1 << 63 // positive: set sign so positives sort after negatives
		}
		return binary.BigEndian.AppendUint64(append(dst, rankNumber), bits)
	case string:
		return append(append(dst, rankString), t...)
	case []any:
		j, _ := json.Marshal(t)
		return append(append(dst, rankArray), j...)
	default:
		j, _ := json.Marshal(t)
		return append(append(dst, rankObject), j...)
	}
}
