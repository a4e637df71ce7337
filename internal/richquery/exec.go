package richquery

import (
	"encoding/base64"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// This file executes the result-shaping half of a query: filtering
// candidates through the selector, ordering, and bookmark pagination.
// Candidates come either from an index range scan or from a full scan; the
// same pipeline runs in both cases so the two paths return identical pages.

// Candidate is one stored value under consideration: a document when it is
// a JSON object, and never a match otherwise.
type Candidate struct {
	Key   string
	Value []byte
}

// Apply filters cands through q's selector, orders them (by the sort spec,
// with document key as the final tiebreak; by key alone when no sort is
// given), resumes after q.Bookmark, and truncates to q.Limit. It returns
// the ordered matching keys and the bookmark for the next page ("" when the
// result set is exhausted). Each candidate is read by one Extract over the
// sort fields and every path a condition of the selector names.
func Apply(q *Query, cands []Candidate) (keys []string, next string, err error) {
	paths := make([][]string, len(q.Sort))
	for i, sf := range q.Sort {
		paths[i] = strings.Split(sf.Field, ".")
	}
	f := fields{paths: readPaths(q.Selector.root, paths)}
	f.vals, f.found = make([]any, len(f.paths)), make([]bool, len(f.paths))
	matched := make([]ranked, 0, len(cands))
	for _, c := range cands {
		if !Extract(c.Value, f.paths, f.vals, f.found) || !q.Selector.root.matches(&f) {
			continue
		}
		matched = append(matched, ranked{key: c.Key, ord: orderKey(q, c.Key, f.vals, f.found)})
	}
	return paginate(q, matched)
}

// fields is one document as Extract read it: vals[i], found[i] is what it
// holds at paths[i]. The first paths are the query's sort fields, one slot
// each; the selector's paths follow, one slot per distinct path.
type fields struct {
	paths [][]string
	vals  []any
	found []bool
}

// at returns what the document holds at path, which has a slot.
func (f *fields) at(path []string) (any, bool) {
	i := slot(f.paths, path)
	return f.vals[i], f.found[i]
}

// slot is path's index in table, -1 when table does not hold it.
func slot(table [][]string, path []string) int {
	return slices.IndexFunc(table, func(p []string) bool { return slices.Equal(p, path) })
}

// readPaths appends to table every path a condition under n reads that
// table does not hold yet.
func readPaths(n node, table [][]string) [][]string {
	switch t := n.(type) {
	case *andNode:
		for _, c := range t.children {
			table = readPaths(c, table)
		}
	case *orNode:
		for _, c := range t.children {
			table = readPaths(c, table)
		}
	case *condNode:
		if slot(table, t.path) < 0 {
			table = append(table, t.path)
		}
	}
	return table
}

// ApplyExact is Apply for a plan with Plan.Exact set: keys are the index
// range, already the selector's match set, so no document is read or
// matched; q has no sort, so ordering needs only the keys.
func ApplyExact(q *Query, keys []string) (page []string, next string, err error) {
	matched := make([]ranked, len(keys))
	for i, key := range keys {
		matched[i] = ranked{key: key, ord: orderKey(q, key, nil, nil)}
	}
	return paginate(q, matched)
}

// ranked is one matching document key with its composite order key.
type ranked struct {
	key string
	ord string
}

// paginate orders matched, resumes after q.Bookmark and truncates to
// q.Limit.
func paginate(q *Query, matched []ranked) (keys []string, next string, err error) {
	var resume string
	if q.Bookmark != "" {
		b, err := base64.RawURLEncoding.DecodeString(q.Bookmark)
		if err != nil {
			return nil, "", fmt.Errorf("richquery: invalid bookmark: %w", err)
		}
		resume = string(b)
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].ord < matched[j].ord })

	start := 0
	if resume != "" {
		start = sort.Search(len(matched), func(i int) bool { return matched[i].ord > resume })
	}
	end := len(matched)
	if q.Limit > 0 && start+q.Limit < end {
		end = start + q.Limit
	}
	for _, m := range matched[start:end] {
		keys = append(keys, m.key)
	}
	if end < len(matched) && len(keys) > 0 {
		next = base64.RawURLEncoding.EncodeToString([]byte(matched[end-1].ord))
	}
	return keys, next, nil
}

// orderKey builds an order-preserving composite sort key: one
// prefix-free-encoded component per sort field (byte-inverted for
// descending, so a single lexicographic comparison handles mixed
// directions), then the document key as the unique tiebreak. Bookmarks
// store this composite, which keeps pagination stable even when documents
// are inserted or deleted between pages.
//
// A missing sort field encodes as the empty component, which sorts before
// every present value ascending and (inverted) after every present value
// descending — CouchDB's missing-first/missing-last behaviour. The sort
// fields' values are vals[i], found[i], as Apply read them.
func orderKey(q *Query, key string, vals []any, found []bool) string {
	var sb strings.Builder
	for i, sf := range q.Sort {
		var comp string
		if found[i] {
			comp = EncodeKey(vals[i])
		}
		enc := encodeComponent(comp, "")
		if sf.Descending {
			enc = invertBytes(enc)
		}
		sb.WriteString(enc)
	}
	sb.WriteString(encodeComponent(key, ""))
	return sb.String()
}

// encodeComponent writes a component as a prefix-free, order-preserving
// byte string, followed by suffix, in one allocation: 0x00 becomes 0x01
// 0x02, 0x01 becomes 0x01 0x03, and the component ends with a 0x00
// terminator. Interior bytes are never 0x00, so no component encoding is a
// prefix of another and composite comparisons are always decided inside the
// first differing component — which is also what makes an index entry,
// encodeComponent(ckey, docKey), order as the pair (ckey, docKey) does.
// Inverting every byte of the encoded component (terminator 0xff, interior
// bytes never 0xff) yields the exact reverse order with the same
// prefix-free property, which is what makes descending sort correct for
// variable-length values: the inverted terminator sorts after any inverted
// continuation, so "ab" correctly precedes its prefix "a" under descending
// order.
func encodeComponent[T ~string | ~[]byte](s T, suffix string) string {
	n := len(s) + 1 + len(suffix)
	for i := 0; i < len(s); i++ {
		if s[i] <= 0x01 {
			n++
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 0x00:
			sb.WriteByte(0x01)
			sb.WriteByte(0x02)
		case 0x01:
			sb.WriteByte(0x01)
			sb.WriteByte(0x03)
		default:
			sb.WriteByte(s[i])
		}
	}
	sb.WriteByte(0x00)
	sb.WriteString(suffix)
	return sb.String()
}

// decodeComponent splits an encoded component off the front of e: the
// component unescaped, and the rest of e after its terminator.
func decodeComponent(e string) (comp, rest string) {
	comp, rest, _ = strings.Cut(e, "\x00")
	return unescape.Replace(comp), rest
}

var unescape = strings.NewReplacer("\x01\x02", "\x00", "\x01\x03", "\x01")

func invertBytes(s string) string {
	b := []byte(s)
	for i := range b {
		b[i] ^= 0xff
	}
	return string(b)
}
