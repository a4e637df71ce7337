package richquery

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// This file is the one JSON scanner of the tree: a validating forward scan
// that accepts exactly the texts json.Valid accepts and hands the caller each
// member and element through a callback instead of building a value tree.
// The record decoders and partial reads of chaincode/provenance sit on it,
// and so does every read of a stored document by the state database: index
// maintenance, index rebuilds and rich-query re-checks all go through
// Extract. encoding/json is reached only for a string literal with an escape
// or a non-ASCII byte, and for a composite value a caller wants as a tree.
//
// A string is scanned eight bytes at a time: one 64-bit word, one mask
// (special) of the bytes the byte loop must look at — '"', '\\', a control
// byte, a non-ASCII one — and a word with none is passed over whole. A
// flagged word sends the scan straight to its lowest flagged byte, which the
// byte loop then handles; that loop also reads the tail shorter than a word
// and the escapes. Words are loaded little-endian whatever the host, so the
// lowest byte of the word is the first in the text on every target (the
// paper's ARM boards included) and "lowest flagged" means "first flagged".

// MaxDepth is the nesting encoding/json accepts.
const MaxDepth = 10000

// Scanner reads one JSON text front to back. Every method that consumes a
// value first skips the whitespace before it and reports malformed input as
// an error; nothing is passed over unvalidated.
type Scanner struct {
	data  []byte
	pos   int
	depth int
}

// NewScanner returns a scanner at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

func (s *Scanner) fail(what string) error {
	return fmt.Errorf("richquery: invalid JSON at offset %d: %s", s.pos, what)
}

// Peek skips whitespace and returns the byte the next value or delimiter
// starts with, 0 at the end of the text.
func (s *Scanner) Peek() byte {
	if s.pos < len(s.data) && s.data[s.pos] > ' ' {
		return s.data[s.pos]
	}
	return s.skipSpace()
}

// skipSpace is Peek past whitespace: a second function, so that Peek's test
// of the next byte stays small enough to inline.
func (s *Scanner) skipSpace() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// End requires that only whitespace remains.
func (s *Scanner) End() error {
	if s.Peek(); s.pos != len(s.data) {
		return s.fail("data after the top-level value")
	}
	return nil
}

// Object walks an object, calling member with each key in turn; member must
// consume the member's value.
func (s *Scanner) Object(member func(key []byte) error) error {
	return s.walk('{', '}', func() error {
		key, err := s.String()
		if err != nil {
			return err
		}
		if s.Peek() != ':' {
			return s.fail("want ':' after an object key")
		}
		s.pos++
		return member(key)
	})
}

// Array walks an array; elem is called at each element and must consume it.
func (s *Scanner) Array(elem func() error) error { return s.walk('[', ']', elem) }

func (s *Scanner) walk(open, closing byte, item func() error) error {
	if s.Peek() != open {
		return s.fail("want '" + string(open) + "'")
	}
	if s.depth++; s.depth > MaxDepth {
		return s.fail("exceeded max depth")
	}
	s.pos++
	for first := true; ; first = false {
		c := s.Peek()
		if c == closing && first {
			break
		}
		if err := item(); err != nil {
			return err
		}
		if c = s.Peek(); c == closing {
			break
		}
		if c != ',' {
			return s.fail("want ',' or '" + string(closing) + "'")
		}
		s.pos++
	}
	s.pos++
	s.depth--
	return nil
}

// String consumes a string and returns its value: a view of the text when
// the literal is unescaped ASCII, otherwise what encoding/json makes of it
// (escapes, surrogate pairs, U+FFFD for invalid UTF-8) — by asking it.
func (s *Scanner) String() ([]byte, error) {
	lit, plain, err := s.quoted()
	if err != nil || plain {
		return lit, err
	}
	var value string
	err = json.Unmarshal(s.data[s.pos-len(lit)-2:s.pos], &value)
	return []byte(value), err
}

// quoted consumes a string and returns what stands between its quotes; plain
// reports that this is the string's value as it stands.
func (s *Scanner) quoted() (lit []byte, plain bool, err error) {
	if s.Peek() != '"' {
		return nil, false, s.fail("want a string")
	}
	plain = true
	data := s.data
	for i := s.pos + 1; ; i++ {
		for ; i+8 <= len(data); i += 8 {
			if m := special(binary.LittleEndian.Uint64(data[i:])); m != 0 {
				i += bits.TrailingZeros64(m) >> 3
				break
			}
		}
		if i >= len(data) {
			return nil, false, s.fail("unterminated string")
		}
		switch c := data[i]; {
		case c == '"':
			lit, s.pos = data[s.pos+1:i], i+1
			return lit, plain, nil
		case c == '\\':
			plain = false
			if i++; i == len(data) {
				return nil, false, s.fail("unterminated string")
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for n := 0; n < 4; n++ {
					if i++; i == len(data) || strings.IndexByte("0123456789abcdefABCDEF", data[i]) < 0 {
						return nil, false, s.fail("bad \\u escape")
					}
				}
			default:
				return nil, false, s.fail("bad escape")
			}
		case c < ' ':
			return nil, false, s.fail("control character in string")
		case c >= 0x80:
			plain = false
		}
	}
}

const (
	ones  = 0x0101010101010101 // 0x01 in every byte of a word
	highs = 0x8080808080808080 // the top bit of every byte
)

// special returns w's bytes that end a plain run of a string — '"', '\\',
// below 0x20 or from 0x80 up — as their top bits. A byte below 0x80 gets its
// top bit from a subtraction only if it is 0 after the xor ('"', '\\') or
// below 0x20; the byte from 0x80 up has it already. A subtraction borrows
// out of a byte only when that byte is flagged, so a false flag can sit
// above the lowest true one but never below it. Each subtraction is
// parenthesised: in Go, '|' binds as tightly as '-'.
func special(w uint64) uint64 {
	return (((w ^ (ones * '"')) - ones) | ((w ^ (ones * '\\')) - ones) | (w - ones*' ') | w) & highs
}

// Number consumes a number and returns its literal.
func (s *Scanner) Number() ([]byte, error) {
	s.Peek()
	data, i := s.data, s.pos
	at := func(c byte) bool { return i < len(data) && data[i] == c }
	digits := func() bool {
		start := i
		for i < len(data) && data[i]-'0' < 10 {
			i++
		}
		return i > start
	}
	if at('-') {
		i++
	}
	if at('0') {
		i++
	} else if !digits() {
		return nil, s.fail("want a number")
	}
	if at('.') {
		if i++; !digits() {
			return nil, s.fail("want digits after '.'")
		}
	}
	if at('e') || at('E') {
		if i++; at('+') || at('-') {
			i++
		}
		if !digits() {
			return nil, s.fail("want digits in the exponent")
		}
	}
	lit := data[s.pos:i]
	s.pos = i
	return lit, nil
}

// Literal consumes true, false or null and returns its first byte.
func (s *Scanner) Literal() (byte, error) {
	c := s.Peek()
	for _, word := range []string{"null", "true", "false"} {
		if c == word[0] && bytes.HasPrefix(s.data[s.pos:], []byte(word)) {
			s.pos += len(word)
			return c, nil
		}
	}
	return 0, s.fail("want a value")
}

// Null consumes a null if that is the next value and reports whether it did.
func (s *Scanner) Null() bool {
	if s.Peek() != 'n' {
		return false
	}
	_, err := s.Literal()
	return err == nil
}

// Skip consumes one value of any type, validating all of it.
func (s *Scanner) Skip() error {
	var err error
	switch c := s.Peek(); {
	case c == '{':
		return s.Object(func([]byte) error { return s.Skip() })
	case c == '[':
		return s.Array(s.Skip)
	case c == '"':
		_, _, err = s.quoted()
	case c == '-' || '0' <= c && c <= '9':
		_, err = s.Number()
	default:
		_, err = s.Literal()
	}
	return err
}

// Raw consumes one value of any type and returns its text.
func (s *Scanner) Raw() ([]byte, error) {
	s.Peek()
	start := s.pos
	err := s.Skip()
	return s.data[start:s.pos], err
}

// IsObject reports whether doc is one well-formed JSON object with nothing
// before it — the test a stored value passes to count as a document.
func IsObject(doc []byte) bool {
	s := Scanner{data: doc}
	return len(doc) > 0 && doc[0] == '{' && s.Skip() == nil && s.End() == nil
}

// Extract reads the values at paths (each a chain of object keys) out of
// doc in one scan, without building the document: vals[i], found[i] are the
// value at paths[i] of doc decoded into a map[string]any, and whether it has
// one — a scalar as string, float64, bool or nil; an array or object decoded
// by encoding/json from its span; a repeated key replacing the earlier one,
// as a map decode does. It reports whether doc is a document, a JSON object
// json.Unmarshal takes into a map, and to say so validates all of it: a
// false return means no index may hold doc and no selector matches it.
func Extract(doc []byte, paths [][]string, vals []any, found []bool) bool {
	if len(doc) == 0 || doc[0] != '{' {
		return false
	}
	clear(vals)
	clear(found)
	for lo := 0; ; lo += 64 { // one scan per 64 paths: live is a uint64
		hi := min(lo+64, len(paths))
		x := extractor{Scanner: Scanner{data: doc}, paths: paths[lo:hi], vals: vals[lo:hi], found: found[lo:hi]}
		if x.object(0, 1<<(hi-lo)-1) != nil || x.End() != nil {
			return false
		}
		if hi == len(paths) {
			return true
		}
	}
}

// extractor is one Extract call. live is the set of paths, as a bit mask,
// whose first depth keys are those of the object being read.
type extractor struct {
	Scanner
	paths [][]string
	vals  []any
	found []bool
}

func (x *extractor) object(depth int, live uint64) error {
	return x.Object(func(key []byte) error {
		var ends, descends uint64
		for i, p := range x.paths {
			if live&(1<<i) == 0 || len(p) <= depth || p[depth] != string(key) {
				continue
			}
			x.found[i] = false // this member replaces any earlier one of its name
			if len(p) == depth+1 {
				ends |= 1 << i
			} else {
				descends |= 1 << i
			}
		}
		val, err := x.value(depth+1, descends, ends != 0)
		for i := range x.paths {
			if err == nil && ends&(1<<i) != 0 {
				x.vals[i], x.found[i] = val, true
			}
		}
		return err
	})
}

// value consumes one value, descending into an object for the paths in
// descends, and returns it decoded when want is set. Every number on the way
// must fit a float64, as decoding into a tree requires.
func (x *extractor) value(depth int, descends uint64, want bool) (any, error) {
	c := x.Peek()
	switch {
	case c == '{' || c == '[':
		start := x.pos
		var err error
		if c == '{' {
			err = x.object(depth, descends)
		} else {
			err = x.Array(func() error { _, err := x.value(0, 0, false); return err })
		}
		if err != nil || !want {
			return nil, err
		}
		var tree any
		err = json.Unmarshal(x.data[start:x.pos], &tree)
		return tree, err
	case c == '"' && want:
		value, err := x.String()
		return string(value), err
	case c == '"':
		_, _, err := x.quoted()
		return nil, err
	case c == '-' || '0' <= c && c <= '9':
		lit, err := x.Number()
		if err != nil {
			return nil, err
		}
		f, err := strconv.ParseFloat(string(lit), 64) // must fit, wanted or not
		if err != nil || !want {
			return nil, err
		}
		return f, nil
	}
	c, err := x.Literal()
	if c == 'n' || err != nil {
		return nil, err
	}
	return c == 't', nil
}
