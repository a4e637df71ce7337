package richquery

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// This file executes the result-shaping half of a query: filtering
// candidates through the selector, ordering, and bookmark pagination.
// Candidates come either from an index range scan or from a full scan; the
// same pipeline runs in both cases so the two paths return identical pages.

// Candidate is one document under consideration, already decoded.
type Candidate struct {
	Key string
	Doc map[string]any
}

// Apply filters cands through q's selector, orders them (by the sort spec,
// with document key as the final tiebreak; by key alone when no sort is
// given), resumes after q.Bookmark, and truncates to q.Limit. It returns
// the ordered matching keys and the bookmark for the next page ("" when the
// result set is exhausted).
func Apply(q *Query, cands []Candidate) (keys []string, next string, err error) {
	matched := make([]ranked, 0, len(cands))
	for _, c := range cands {
		if !q.Selector.Matches(c.Doc) {
			continue
		}
		matched = append(matched, ranked{key: c.Key, ord: orderKey(q, c.Key, c.Doc)})
	}
	return paginate(q, matched)
}

// ApplyExact is Apply for a plan with Plan.Exact set: keys are the index
// range, already the selector's match set, so no document is decoded or
// matched; q has no sort, so ordering needs only the keys.
func ApplyExact(q *Query, keys []string) (page []string, next string, err error) {
	matched := make([]ranked, len(keys))
	for i, key := range keys {
		matched[i] = ranked{key: key, ord: orderKey(q, key, nil)}
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
// descending — CouchDB's missing-first/missing-last behaviour.
func orderKey(q *Query, key string, doc map[string]any) string {
	var sb strings.Builder
	for _, sf := range q.Sort {
		var comp string
		if val, ok := Lookup(doc, strings.Split(sf.Field, ".")); ok {
			comp = EncodeKey(val)
		}
		enc := encodeComponent(comp)
		if sf.Descending {
			enc = invertBytes(enc)
		}
		sb.WriteString(enc)
	}
	sb.WriteString(encodeComponent(key))
	return sb.String()
}

// encodeComponent writes a component as a prefix-free, order-preserving
// byte string: 0x00 becomes 0x01 0x02, 0x01 becomes 0x01 0x03, and the
// component ends with a 0x00 terminator. Interior bytes are never 0x00, so
// no component encoding is a prefix of another and composite comparisons
// are always decided inside the first differing component. Inverting every
// byte of the encoded component (terminator 0xff, interior bytes never
// 0xff) yields the exact reverse order with the same prefix-free property,
// which is what makes descending sort correct for variable-length values:
// the inverted terminator sorts after any inverted continuation, so "ab"
// correctly precedes its prefix "a" under descending order.
func encodeComponent(s string) string {
	var sb strings.Builder
	sb.Grow(len(s) + 1)
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
	return sb.String()
}

func invertBytes(s string) string {
	b := []byte(s)
	for i := range b {
		b[i] ^= 0xff
	}
	return string(b)
}

// DecodeDoc decodes a raw JSON value into a document for matching; ok is
// false when the value is not a JSON object (such documents never match a
// selector).
func DecodeDoc(raw []byte) (map[string]any, bool) {
	if len(raw) == 0 || raw[0] != '{' {
		return nil, false
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, false
	}
	return doc, true
}
