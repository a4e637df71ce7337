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
// are JSON documents decoded into map[string]any; callers (the state
// database) supply candidate documents and receive ordered keys back.
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
	case json.Number:
		return rankNumber
	case string:
		return rankString
	case []any:
		return rankArray
	case map[string]any:
		return rankObject
	default:
		// Non-JSON Go values (e.g. ints supplied programmatically) are
		// normalized before ranking; anything else sorts with objects.
		return rankObject
	}
}

// normalize converts programmatic Go numbers into the float64 form that
// encoding/json produces, so selectors built in Go behave like parsed ones.
func normalize(v any) any {
	switch t := v.(type) {
	case int:
		return float64(t)
	case int32:
		return float64(t)
	case int64:
		return float64(t)
	case uint64:
		return float64(t)
	case float32:
		return float64(t)
	case json.Number:
		f, err := t.Float64()
		if err != nil {
			return t.String()
		}
		return f
	default:
		return v
	}
}

// Compare orders two JSON values by CouchDB collation rules. It returns
// -1, 0, or 1. Arrays compare elementwise (shorter first on a tie); objects
// compare by sorted key, then value.
func Compare(a, b any) int {
	a, b = normalize(a), normalize(b)
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
	default: // objects and anything exotic: compare by sorted key/value pairs
		ma, okA := a.(map[string]any)
		mb, okB := b.(map[string]any)
		if !okA || !okB {
			// Fall back to JSON encoding for non-map oddballs.
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			switch {
			case string(ja) < string(jb):
				return -1
			case string(ja) > string(jb):
				return 1
			default:
				return 0
			}
		}
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
	v = normalize(v)
	switch t := v.(type) {
	case nil:
		return string([]byte{rankNull})
	case bool:
		if t {
			return string([]byte{rankTrue})
		}
		return string([]byte{rankFalse})
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
		var buf [9]byte
		buf[0] = rankNumber
		binary.BigEndian.PutUint64(buf[1:], bits)
		return string(buf[:])
	case string:
		return string([]byte{rankString}) + t
	case []any:
		j, _ := json.Marshal(t)
		return string([]byte{rankArray}) + string(j)
	default:
		j, _ := json.Marshal(t)
		return string([]byte{rankObject}) + string(j)
	}
}
