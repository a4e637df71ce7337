package richquery

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// Selector is a parsed Mango selector: a boolean combination of per-field
// conditions. Build one with ParseSelector; Apply evaluates it.
type Selector struct {
	root node
	raw  json.RawMessage
}

// node is one evaluated clause of a selector tree.
type node interface {
	matches(doc *fields) bool
}

// andNode matches when every child matches (also the implicit top level).
type andNode struct{ children []node }

// orNode matches when at least one child matches.
type orNode struct{ children []node }

// condNode is one operator applied to one (possibly dotted) field path.
type condNode struct {
	path    []string
	op      string
	operand any
	re      *regexp.Regexp // compiled operand for $regex
}

// Operator names accepted in selectors.
const (
	opEq    = "$eq"
	opGt    = "$gt"
	opGte   = "$gte"
	opLt    = "$lt"
	opLte   = "$lte"
	opIn    = "$in"
	opRegex = "$regex"
	opAnd   = "$and"
	opOr    = "$or"
)

// ParseSelector parses a JSON Mango selector. Field names may use dotted
// paths ("meta.type"); a field whose value is an object with no $-keys is
// descended into as nested field selectors; a field whose value is an
// object of $-operators applies each operator (implicitly ANDed); any other
// value is an implicit $eq.
func ParseSelector(raw []byte) (*Selector, error) {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		return nil, fmt.Errorf("richquery: selector must be a JSON object: %w", err)
	}
	root, err := parseClause(nil, obj)
	if err != nil {
		return nil, err
	}
	cp := make(json.RawMessage, len(raw))
	copy(cp, raw)
	return &Selector{root: root, raw: cp}, nil
}

// MustSelector parses a selector known to be valid (test/bench helper).
func MustSelector(raw string) *Selector {
	s, err := ParseSelector([]byte(raw))
	if err != nil {
		panic(err)
	}
	return s
}

// Raw returns the original JSON the selector was parsed from.
func (s *Selector) Raw() json.RawMessage { return s.raw }

// parseClause parses one selector object in the context of field path
// prefix. Keys starting with $ are combinators; other keys are fields.
func parseClause(prefix []string, obj map[string]json.RawMessage) (node, error) {
	// Deterministic parse order keeps error messages stable.
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var children []node
	for _, k := range keys {
		v := obj[k]
		switch {
		case k == opAnd || k == opOr:
			if len(prefix) != 0 {
				return nil, fmt.Errorf("richquery: %s not allowed under field %q", k, strings.Join(prefix, "."))
			}
			var items []json.RawMessage
			if err := json.Unmarshal(v, &items); err != nil {
				return nil, fmt.Errorf("richquery: %s wants an array of selectors: %w", k, err)
			}
			var subs []node
			for _, item := range items {
				var sub map[string]json.RawMessage
				if err := json.Unmarshal(item, &sub); err != nil {
					return nil, fmt.Errorf("richquery: %s element must be a selector object: %w", k, err)
				}
				n, err := parseClause(nil, sub)
				if err != nil {
					return nil, err
				}
				subs = append(subs, n)
			}
			if k == opAnd {
				children = append(children, &andNode{children: subs})
			} else {
				if len(subs) == 0 {
					return nil, fmt.Errorf("richquery: $or wants at least one selector")
				}
				children = append(children, &orNode{children: subs})
			}
		case strings.HasPrefix(k, "$"):
			return nil, fmt.Errorf("richquery: unknown combinator %q", k)
		default:
			path := append(append([]string{}, prefix...), strings.Split(k, ".")...)
			n, err := parseFieldValue(path, v)
			if err != nil {
				return nil, err
			}
			children = append(children, n)
		}
	}
	return &andNode{children: children}, nil
}

// parseFieldValue parses the value attached to a field key.
func parseFieldValue(path []string, raw json.RawMessage) (node, error) {
	// Only a JSON object can hold operators or sub-fields; anything else
	// (including null, which Unmarshal would silently accept into a map)
	// is an implicit $eq operand.
	var obj map[string]json.RawMessage
	if isJSONObject(raw) {
		if err := json.Unmarshal(raw, &obj); err != nil {
			return nil, fmt.Errorf("richquery: field %q: %w", strings.Join(path, "."), err)
		}
		dollar, plain := 0, 0
		for k := range obj {
			if strings.HasPrefix(k, "$") {
				dollar++
			} else {
				plain++
			}
		}
		switch {
		case dollar > 0 && plain > 0:
			return nil, fmt.Errorf("richquery: field %q mixes operators and sub-fields", strings.Join(path, "."))
		case dollar > 0:
			return parseOperators(path, obj)
		case plain > 0:
			return parseClause(path, obj)
		default:
			// {} — empty operator object: matches documents having the field.
			// Treated as implicit $eq against the empty object, like CouchDB.
			return &condNode{path: path, op: opEq, operand: map[string]any{}}, nil
		}
	}
	var operand any
	if err := json.Unmarshal(raw, &operand); err != nil {
		return nil, fmt.Errorf("richquery: field %q: bad operand: %w", strings.Join(path, "."), err)
	}
	return &condNode{path: path, op: opEq, operand: operand}, nil
}

// isJSONObject reports whether raw's first significant byte opens an object.
func isJSONObject(raw []byte) bool {
	for _, b := range raw {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}

// parseOperators parses an all-$ operator object for one field.
func parseOperators(path []string, obj map[string]json.RawMessage) (node, error) {
	ops := make([]string, 0, len(obj))
	for k := range obj {
		ops = append(ops, k)
	}
	sort.Strings(ops)
	var children []node
	for _, op := range ops {
		var operand any
		if err := json.Unmarshal(obj[op], &operand); err != nil {
			return nil, fmt.Errorf("richquery: field %q: bad %s operand: %w", strings.Join(path, "."), op, err)
		}
		cond := &condNode{path: path, op: op, operand: operand}
		switch op {
		case opEq, opGt, opGte, opLt, opLte:
		case opIn:
			if _, ok := operand.([]any); !ok {
				return nil, fmt.Errorf("richquery: field %q: $in wants an array", strings.Join(path, "."))
			}
		case opRegex:
			pat, ok := operand.(string)
			if !ok {
				return nil, fmt.Errorf("richquery: field %q: $regex wants a string", strings.Join(path, "."))
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				return nil, fmt.Errorf("richquery: field %q: bad $regex: %w", strings.Join(path, "."), err)
			}
			cond.re = re
		default:
			return nil, fmt.Errorf("richquery: field %q: unknown operator %q", strings.Join(path, "."), op)
		}
		children = append(children, cond)
	}
	return &andNode{children: children}, nil
}

func (n *andNode) matches(doc *fields) bool {
	for _, c := range n.children {
		if !c.matches(doc) {
			return false
		}
	}
	return true
}

func (n *orNode) matches(doc *fields) bool {
	for _, c := range n.children {
		if c.matches(doc) {
			return true
		}
	}
	return false
}

func (n *condNode) matches(doc *fields) bool {
	val, ok := doc.at(n.path)
	if !ok {
		return false // conditions never match a missing field
	}
	switch n.op {
	case opEq:
		return Compare(val, n.operand) == 0
	case opGt:
		return Compare(val, n.operand) > 0
	case opGte:
		return Compare(val, n.operand) >= 0
	case opLt:
		return Compare(val, n.operand) < 0
	case opLte:
		return Compare(val, n.operand) <= 0
	case opIn:
		for _, item := range n.operand.([]any) {
			if Compare(val, item) == 0 {
				return true
			}
		}
		return false
	case opRegex:
		s, isStr := val.(string)
		return isStr && n.re.MatchString(s)
	default:
		return false
	}
}
