package richquery

import (
	"fmt"
	"sort"
	"strings"
)

// IndexDef declares one single-field secondary index, the analog of a
// CouchDB index shipped in a chaincode's META-INF/statedb directory.
type IndexDef struct {
	// Name identifies the index (unique per state database).
	Name string `json:"name"`
	// Field is the dotted document path the index covers (e.g. "owner",
	// "meta.type").
	Field string `json:"field"`
}

// Validate checks the definition is usable.
func (d IndexDef) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("richquery: index with empty name")
	}
	if d.Field == "" {
		return fmt.Errorf("richquery: index %q with empty field", d.Name)
	}
	return nil
}

// indexEntry is one (encoded field value, document key) pair.
type indexEntry struct {
	ckey   string // EncodeKey of the field value
	docKey string
}

// Index is an ordered single-field secondary index over JSON documents.
// Entries are kept sorted by (collation key, document key), so equality and
// range lookups on the field become contiguous slices. Only documents that
// have the field appear in the index; since a selector condition never
// matches a missing field, pruning to index members is sound.
//
// Index is not self-synchronizing: the owning state database serializes
// access (entries change inside its commit lock; the values they are built
// from are extracted outside it).
type Index struct {
	def     IndexDef
	path    []string
	byDoc   map[string]string // docKey -> ckey currently indexed
	entries []indexEntry      // sorted by (ckey, docKey)
}

// NewIndex creates an empty index for def.
func NewIndex(def IndexDef) *Index {
	return &Index{
		def:   def,
		path:  strings.Split(def.Field, "."),
		byDoc: make(map[string]string),
	}
}

// Def returns the index's definition.
func (ix *Index) Def() IndexDef { return ix.def }

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return len(ix.entries) }

// locate returns the position of (ckey, docKey) or where it would insert.
func (ix *Index) locate(ckey, docKey string) int {
	return sort.Search(len(ix.entries), func(i int) bool {
		e := ix.entries[i]
		if e.ckey != ckey {
			return e.ckey >= ckey
		}
		return e.docKey >= docKey
	})
}

// Path returns the indexed field as the key chain Extract and Lookup take.
func (ix *Index) Path() []string { return ix.path }

// Put indexes docKey under val, the value its document holds at Path (see
// Extract), replacing any previous entry for docKey. A document without the
// field (ok false) is removed from the index.
func (ix *Index) Put(docKey string, val any, ok bool) {
	if !ok {
		ix.Delete(docKey)
		return
	}
	ckey := EncodeKey(val)
	if old, exists := ix.byDoc[docKey]; exists {
		if old == ckey {
			return
		}
		ix.remove(old, docKey)
	}
	pos := ix.locate(ckey, docKey)
	ix.entries = append(ix.entries, indexEntry{})
	copy(ix.entries[pos+1:], ix.entries[pos:])
	ix.entries[pos] = indexEntry{ckey: ckey, docKey: docKey}
	ix.byDoc[docKey] = ckey
}

// Load replaces the index contents with a one-shot build over docs. Unlike
// repeated Put calls (binary search plus slice insertion each), Load
// collects every entry and sorts once — O(n log n) — which is what keeps
// declaring an index over a large existing state (chaincode install) and
// wholesale state restore (partition healing) from being quadratic.
func (ix *Index) Load(docs []Candidate) {
	ix.byDoc = make(map[string]string, len(docs))
	ix.entries = ix.entries[:0]
	for _, d := range docs {
		val, ok := Lookup(d.Doc, ix.path)
		if !ok {
			continue
		}
		ck := EncodeKey(val)
		ix.byDoc[d.Key] = ck
		ix.entries = append(ix.entries, indexEntry{ckey: ck, docKey: d.Key})
	}
	sort.Slice(ix.entries, func(i, j int) bool {
		if ix.entries[i].ckey != ix.entries[j].ckey {
			return ix.entries[i].ckey < ix.entries[j].ckey
		}
		return ix.entries[i].docKey < ix.entries[j].docKey
	})
}

// IndexEntry is one exported (collation key, document key) pair — the
// serialized form checkpoints persist so recovery can bulk-load an index
// without re-decoding every JSON document in state.
type IndexEntry struct {
	// CKey is the encoded field value (EncodeKey).
	CKey string
	// DocKey is the indexed document's state key.
	DocKey string
}

// Entries returns a copy of the index contents in (CKey, DocKey) order.
func (ix *Index) Entries() []IndexEntry {
	out := make([]IndexEntry, len(ix.entries))
	for i, e := range ix.entries {
		out[i] = IndexEntry{CKey: e.ckey, DocKey: e.docKey}
	}
	return out
}

// LoadEntries replaces the index contents with previously exported entries
// (checkpoint restore). Entries are expected in (CKey, DocKey) order — the
// order Entries emits — and are re-sorted defensively when they are not, so
// a hand-edited checkpoint degrades to a sort instead of silent misqueries.
func (ix *Index) LoadEntries(entries []IndexEntry) {
	ix.entries = make([]indexEntry, len(entries))
	ix.byDoc = make(map[string]string, len(entries))
	sorted := true
	for i, e := range entries {
		ix.entries[i] = indexEntry{ckey: e.CKey, docKey: e.DocKey}
		ix.byDoc[e.DocKey] = e.CKey
		if i > 0 && (entries[i-1].CKey > e.CKey ||
			(entries[i-1].CKey == e.CKey && entries[i-1].DocKey > e.DocKey)) {
			sorted = false
		}
	}
	if !sorted {
		sort.Slice(ix.entries, func(i, j int) bool {
			if ix.entries[i].ckey != ix.entries[j].ckey {
				return ix.entries[i].ckey < ix.entries[j].ckey
			}
			return ix.entries[i].docKey < ix.entries[j].docKey
		})
	}
}

// Delete drops docKey from the index (no-op when absent).
func (ix *Index) Delete(docKey string) {
	old, exists := ix.byDoc[docKey]
	if !exists {
		return
	}
	ix.remove(old, docKey)
}

func (ix *Index) remove(ckey, docKey string) {
	pos := ix.locate(ckey, docKey)
	if pos < len(ix.entries) && ix.entries[pos].ckey == ckey && ix.entries[pos].docKey == docKey {
		ix.entries = append(ix.entries[:pos], ix.entries[pos+1:]...)
	}
	delete(ix.byDoc, docKey)
}

// Bound is one end of an index range scan.
type Bound struct {
	// CKey is the encoded field value (EncodeKey).
	CKey string
	// Inclusive reports whether the bound itself is part of the range.
	Inclusive bool
	// Set reports whether the bound constrains the scan at all.
	Set bool
}

// Range returns the document keys whose indexed value lies within the
// bounds, ordered by (field value, document key). Unset bounds are open.
func (ix *Index) Range(low, high Bound) []string {
	start := 0
	if low.Set {
		if low.Inclusive {
			start = sort.Search(len(ix.entries), func(i int) bool { return ix.entries[i].ckey >= low.CKey })
		} else {
			start = sort.Search(len(ix.entries), func(i int) bool { return ix.entries[i].ckey > low.CKey })
		}
	}
	end := len(ix.entries)
	if high.Set {
		if high.Inclusive {
			end = sort.Search(len(ix.entries), func(i int) bool { return ix.entries[i].ckey > high.CKey })
		} else {
			end = sort.Search(len(ix.entries), func(i int) bool { return ix.entries[i].ckey >= high.CKey })
		}
	}
	if start >= end {
		return nil
	}
	out := make([]string, 0, end-start)
	for _, e := range ix.entries[start:end] {
		out = append(out, e.docKey)
	}
	return out
}
