package richquery

import (
	"slices"
	"strings"
)

// This file is the query planner: it inspects a selector's top-level AND
// structure, extracts the value bounds it implies for a candidate index
// field, and picks the index to serve a query from. Conditions inside $or
// branches never contribute bounds (an index scan over one branch would
// miss matches from the others), and bounds are only derived from scalar
// operands, where EncodeKey order agrees with Compare. The planner is always
// sound (never prunes a match). When the bounds say everything the selector
// says (see coveredBy) the range is also exact and the plan reports it, so
// the executor can skip reading candidates; every other plan has the full
// selector re-applied to each candidate document.

// FieldBounds returns the tightest (low, high) encoded-value bounds the
// selector implies for the dotted field path, and whether the field is
// constrained at all.
func (s *Selector) FieldBounds(field string) (low, high Bound, constrained bool) {
	if s == nil || s.root == nil {
		return Bound{}, Bound{}, false
	}
	path := strings.Split(field, ".")
	low, high = boundsOf(s.root, path)
	return low, high, low.Set || high.Set
}

// boundsOf walks AND-reachable conditions for path and intersects bounds.
func boundsOf(n node, path []string) (low, high Bound) {
	switch t := n.(type) {
	case *andNode:
		for _, c := range t.children {
			l, h := boundsOf(c, path)
			low = tightenLow(low, l)
			high = tightenHigh(high, h)
		}
	case *condNode:
		if !slices.Equal(t.path, path) {
			return
		}
		return condBounds(t)
	}
	// orNode: contributes nothing — any branch may match outside a bound.
	return
}

// coveredBy reports whether n is a pure conjunction of scalar comparisons on
// path — the shape whose match set is exactly the index range boundsOf
// derives: a member of the index has the field, a scalar bound compares by
// EncodeKey as Compare does, and values of other types fall on the side of
// the bound their collation rank puts them. Anything else ($or, $in, $regex,
// a non-scalar operand, a second field) needs the document.
func coveredBy(n node, path []string) bool {
	switch t := n.(type) {
	case *andNode:
		for _, c := range t.children {
			if !coveredBy(c, path) {
				return false
			}
		}
		return true
	case *condNode:
		switch t.op {
		case opEq, opGt, opGte, opLt, opLte:
			return slices.Equal(t.path, path) && isScalar(t.operand)
		}
	}
	return false
}

// isScalar reports whether a JSON value has EncodeKey order
// consistent with Compare.
func isScalar(v any) bool {
	switch v.(type) {
	case nil, bool, float64, string:
		return true
	default:
		return false
	}
}

// condBounds derives bounds from one condition, if its operand is scalar.
func condBounds(c *condNode) (low, high Bound) {
	switch c.op {
	case opEq:
		if isScalar(c.operand) {
			k := EncodeKey(c.operand)
			return Bound{CKey: k, Inclusive: true, Set: true}, Bound{CKey: k, Inclusive: true, Set: true}
		}
	case opGt:
		if isScalar(c.operand) {
			return Bound{CKey: EncodeKey(c.operand), Set: true}, Bound{}
		}
	case opGte:
		if isScalar(c.operand) {
			return Bound{CKey: EncodeKey(c.operand), Inclusive: true, Set: true}, Bound{}
		}
	case opLt:
		if isScalar(c.operand) {
			return Bound{}, Bound{CKey: EncodeKey(c.operand), Set: true}
		}
	case opLte:
		if isScalar(c.operand) {
			return Bound{}, Bound{CKey: EncodeKey(c.operand), Inclusive: true, Set: true}
		}
	case opIn:
		items := c.operand.([]any)
		if len(items) == 0 {
			return
		}
		for _, it := range items {
			if !isScalar(it) {
				return
			}
		}
		lo, hi := EncodeKey(items[0]), EncodeKey(items[0])
		for _, it := range items[1:] {
			k := EncodeKey(it)
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
		return Bound{CKey: lo, Inclusive: true, Set: true}, Bound{CKey: hi, Inclusive: true, Set: true}
	}
	return
}

// tightenLow keeps the stricter of two lower bounds.
func tightenLow(a, b Bound) Bound {
	switch {
	case !a.Set:
		return b
	case !b.Set:
		return a
	case b.CKey > a.CKey:
		return b
	case b.CKey < a.CKey:
		return a
	case !b.Inclusive:
		return b // same key: exclusive is stricter
	default:
		return a
	}
}

// tightenHigh keeps the stricter of two upper bounds.
func tightenHigh(a, b Bound) Bound {
	switch {
	case !a.Set:
		return b
	case !b.Set:
		return a
	case b.CKey < a.CKey:
		return b
	case b.CKey > a.CKey:
		return a
	case !b.Inclusive:
		return b
	default:
		return a
	}
}

// Plan is the planner's choice for one query.
type Plan struct {
	// Index is the chosen index, nil when the query must scan.
	Index *Index
	// Low and High bound the index scan when Index is non-nil.
	Low, High Bound
	// Exact reports that the range [Low, High] of Index is the query's
	// match set, not a superset: the selector constrains nothing but the
	// index's field, by scalar comparisons only, and no sort needs the
	// documents. The keys can go to ApplyExact unread.
	Exact bool
}

// ChooseIndex picks the index to serve q from, preferring an explicitly
// requested use_index, then equality-constrained indexes, then any
// range-constrained index. A nil Index in the returned plan means no index
// applies and the caller should run a filtered scan.
func ChooseIndex(q *Query, indexes []Index) Plan {
	var best Plan
	bestScore := 0
	for i := range indexes {
		ix := &indexes[i]
		low, high, ok := q.Selector.FieldBounds(ix.Def().Field)
		if !ok {
			continue
		}
		score := 1 // range-constrained
		if low.Set && high.Set {
			score = 2 // bounded both sides
			if low.CKey == high.CKey {
				score = 3 // equality / point lookup
			}
		}
		if nameMatches(ix.Def().Name, q.UseIndex) {
			score = 4 // caller asked for this one and it applies
		}
		if score > bestScore {
			best = Plan{Index: ix, Low: low, High: high}
			bestScore = score
		}
	}
	if best.Index != nil && len(q.Sort) == 0 {
		best.Exact = coveredBy(q.Selector.root, best.Index.path)
	}
	return best
}

// nameMatches compares a registered index name against a use_index request.
// Registered names may be namespace-qualified ("chaincode.by-owner", as the
// peer registers chaincode-declared indexes), so the unqualified name a
// chaincode passes also matches.
func nameMatches(registered, requested string) bool {
	if requested == "" {
		return false
	}
	return registered == requested || strings.HasSuffix(registered, "."+requested)
}
