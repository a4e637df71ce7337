package richquery

import (
	"fmt"
	"slices"
	"strings"

	"github.com/hyperprov/hyperprov/internal/keyset"
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

// Index is one version of a single-field secondary index over JSON
// documents. Its entries are one keyset.Set of strings, each the encoded
// field value (EncodeKey) as a component followed by the document key:
// encodeComponent(ckey, docKey). Components are prefix-free and
// order-preserving, so the set's string order is (field value, document
// key) order, and equality and range lookups on the field are contiguous
// runs of it. Only documents that have the field appear in the index;
// since a selector condition never matches a missing field, pruning to
// index members is sound.
//
// An Index is a value, and a copy pins the version it was taken from: it
// reads without a lock however far the index advances. Update returns the
// next version. Every version shares the writer's map from document key to
// entry, so only the newest version may be updated, by one writer at a time
// (the owning store's write lock).
type Index struct {
	*shared
	set *keyset.Set
}

// shared is what every version of one index holds in common.
type shared struct {
	def   IndexDef
	path  []string
	byDoc map[string]string // docKey -> its entry in the newest version; the writer's alone
}

// BuildIndex builds the index def declares over docs in one shot: each
// document's field is read with Extract, as Update reads it at commit, and
// every entry is collected and sorted once, which is what keeps declaring an
// index over a large existing state (chaincode install) and wholesale state
// restore from costing one insertion per document.
func BuildIndex(def IndexDef, docs []Candidate) Index {
	paths := [][]string{strings.Split(def.Field, ".")}
	var val [1]any
	var found [1]bool
	entries := make([]string, 0, len(docs))
	for _, d := range docs {
		if Extract(d.Value, paths, val[:], found[:]) && found[0] {
			entries = append(entries, entry(val[0], d.Key))
		}
	}
	return newIndex(def, paths[0], entries)
}

// LoadIndex rebuilds the index def declares from previously exported
// entries (checkpoint restore), without reading any document.
func LoadIndex(def IndexDef, exported []IndexEntry) Index {
	entries := make([]string, len(exported))
	for i, x := range exported {
		entries[i] = encodeComponent(x.CKey, x.DocKey)
	}
	return newIndex(def, strings.Split(def.Field, "."), entries)
}

// newIndex returns the index holding entries, which it sorts: exported
// entries arrive in order and sort in linear time, and a hand-edited
// checkpoint degrades to a sort instead of silent misqueries.
func newIndex(def IndexDef, path, entries []string) Index {
	slices.Sort(entries)
	entries = slices.Compact(entries)
	byDoc := make(map[string]string, len(entries))
	for _, e := range entries {
		byDoc[docKeyOf(e)] = e
	}
	return Index{&shared{def: def, path: path, byDoc: byDoc}, keyset.New(entries)}
}

// entry is docKey's index entry under val, built in one allocation.
func entry(val any, docKey string) string {
	var buf [64]byte
	return encodeComponent(appendKey(buf[:0], val), docKey)
}

// docKeyOf is the document key of an entry: what follows the component's
// terminator, the first 0x00.
func docKeyOf(e string) string { return e[strings.IndexByte(e, 0x00)+1:] }

// Def returns the index's definition.
func (ix Index) Def() IndexDef { return ix.def }

// Path returns the indexed field as the key chain Extract takes.
func (ix Index) Path() []string { return ix.path }

// Len returns the number of indexed documents.
func (ix Index) Len() int { return ix.set.Len() }

// Update returns the next version of the index with each keys[w] indexed
// under the value its document holds at Path, as doc(w) reports it (see
// Extract), or removed from the index when doc(w) reports none. Keys must
// be distinct: they are one block's writes, published as one set version.
func (ix Index) Update(keys []string, doc func(w int) (val any, ok bool)) Index {
	var buf [64]keyset.Change // a block of a few dozen documents changes no more
	changes := buf[:0]
	if n := 2 * len(keys); n > len(buf) {
		changes = make([]keyset.Change, 0, n)
	}
	for w, key := range keys {
		var e string // no entry is empty: each ends its component with 0x00
		if val, ok := doc(w); ok {
			e = entry(val, key)
		}
		old, had := ix.byDoc[key]
		if e == old {
			continue
		}
		if had {
			changes = append(changes, keyset.Change{Key: old, Dead: true})
		}
		if e != "" {
			changes = append(changes, keyset.Change{Key: e})
			ix.byDoc[key] = e
		} else {
			delete(ix.byDoc, key)
		}
	}
	ix.set = ix.set.Apply(changes)
	return ix
}

// IndexEntry is one exported (collation key, document key) pair — the
// serialized form checkpoints persist so recovery can bulk-load an index
// without re-reading every JSON document in state.
type IndexEntry struct {
	// CKey is the encoded field value (EncodeKey).
	CKey string
	// DocKey is the indexed document's state key.
	DocKey string
}

// Entries returns the index contents in (CKey, DocKey) order.
func (ix Index) Entries() []IndexEntry {
	out := make([]IndexEntry, 0, ix.Len())
	for it := ix.set.Seek(""); ; {
		e, ok := it.Next()
		if !ok {
			return out
		}
		ckey, docKey := decodeComponent(e)
		out = append(out, IndexEntry{CKey: ckey, DocKey: docKey})
	}
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
func (ix Index) Range(low, high Bound) []string {
	var start, stop string
	if low.Set {
		start = entryBound(low.CKey, !low.Inclusive)
	}
	if high.Set {
		stop = entryBound(high.CKey, high.Inclusive)
	}
	var out []string
	for it := ix.set.Seek(start); ; {
		e, ok := it.Next()
		if !ok || (high.Set && e >= stop) {
			return out
		}
		out = append(out, docKeyOf(e))
	}
}

// entryBound is the least entry string at or above every entry under ckey
// (past false), or above all of them (past true): the component's 0x00
// terminator, which every entry under ckey carries next, raised to 0x01.
// No entry under a greater ckey sorts below either bound, since interior
// component bytes are never 0x00.
func entryBound(ckey string, past bool) string {
	enc := encodeComponent(ckey, "")
	if past {
		return enc[:len(enc)-1] + "\x01"
	}
	return enc
}
