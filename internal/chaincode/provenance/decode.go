package provenance

import (
	"bytes"
	"strconv"
	"time"

	"github.com/hyperprov/hyperprov/internal/richquery"
)

// This file reads the format set writes, on richquery's scanner instead of
// reflection: the client's decoders of every read payload (Decode*) and the
// chaincode's own reads of a field or two of a stored record (readFields).
// The contract is encoding/json's: the same inputs are refused, and an
// accepted one yields the value json.Unmarshal into the same type yields
// (decode_test.go holds both to it) — null leaves a scalar as it is and
// clears a slice, map or pointer, a repeated member decodes over what the
// earlier one left.

// decoder reads one payload. With text set, every string the scanner returns
// as a view of the payload decodes to that substring of text — one
// allocation for the payload's strings instead of one each, at the price
// that any of them keeps all of it reachable. The chaincode's partial reads,
// which keep a few short strings of a large value, leave it empty and copy.
type decoder struct {
	sc      richquery.Scanner
	data    []byte
	text    string
	scratch []string // strs' elements before their one copy out
}

// decode reads payload's one value with read — its strings sharing one copy
// of the payload if share is set — and requires nothing to follow it.
func decode[T any](payload []byte, share bool, read func(*decoder, *T) error) (out T, err error) {
	d := &decoder{sc: richquery.NewScanner(payload), data: payload}
	if share {
		d.text = string(payload)
	}
	if err = read(d, &out); err == nil {
		err = d.sc.End()
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

// own returns b as a string: the matching substring of text when b is a
// view of the payload and text is shared, a copy otherwise.
func (d *decoder) own(b []byte) string {
	off := cap(d.data) - cap(b)
	if d.text == "" || len(b) == 0 || off < 0 || off+len(b) > len(d.data) || &d.data[off] != &b[0] {
		return string(b)
	}
	return d.text[off : off+len(b)]
}

// object walks the members of an object; null, which encoding/json decodes
// into a struct or a map as nothing, has none.
func (d *decoder) object(member func(key []byte) error) error {
	if d.sc.Null() {
		return nil
	}
	return d.sc.Object(member)
}

// members walks an object and hands field each member whose key selects one
// of names, as that name: the exact one or, encoding/json's second try, one
// equal under Unicode case folding. Other members are skipped.
func (d *decoder) members(names []string, field func(name string) error) error {
	return d.object(func(key []byte) error {
		for _, name := range names {
			if string(key) == name {
				return field(name)
			}
		}
		for _, name := range names {
			if bytes.EqualFold(key, []byte(name)) {
				return field(name)
			}
		}
		return d.sc.Skip()
	})
}

func (d *decoder) str(dst *string) error {
	if d.sc.Null() {
		return nil
	}
	value, err := d.sc.String()
	if err == nil {
		*dst = d.own(value)
	}
	return err
}

// view reads a string as the scanner returns it, without a copy: a view of
// the payload when the literal is unescaped ASCII.
func (d *decoder) view(dst *[]byte) error {
	if d.sc.Null() {
		return nil
	}
	value, err := d.sc.String()
	if err == nil {
		*dst = value
	}
	return err
}

func (d *decoder) boolean(dst *bool) error {
	c, err := d.sc.Literal()
	if err == nil && c != 'n' {
		*dst = c == 't'
	}
	return err
}

// integer reads an int64 (strconv.ParseInt) or a uint64 (ParseUint): as for
// encoding/json, a fraction, an exponent or a value out of range is an error.
func integer[T any](d *decoder, dst *T, parse func(string, int, int) (T, error)) error {
	if d.sc.Null() {
		return nil
	}
	lit, err := d.sc.Number()
	if err == nil {
		*dst, err = parse(d.own(lit), 10, 64)
	}
	return err
}

// time hands the value, whatever it is, to time.Time's own decoder.
func (d *decoder) time(dst *time.Time) error {
	raw, err := d.sc.Raw()
	if err == nil {
		err = dst.UnmarshalJSON(raw)
	}
	return err
}

// array decodes an array into *dst as encoding/json decodes into a slice:
// null makes it nil, an empty array a fresh empty slice; element i decodes
// over whatever s[:cap(s)][i] holds (left there by an earlier member of the
// same name) and the slice ends after the last. hint sizes a first allocation.
func array[T any](d *decoder, dst *[]T, hint int, elem func(*decoder, *T) error) error {
	if d.sc.Null() {
		*dst = nil
		return nil
	}
	s, n := *dst, 0
	if s == nil {
		s = make([]T, 0, hint)
	}
	err := d.sc.Array(func() error {
		if n == len(s) {
			if n < cap(s) {
				s = s[:n+1]
			} else {
				var zero T
				s = append(s, zero)
			}
		}
		n++
		return elem(d, &s[n-1])
	})
	if n == 0 {
		s = []T{}
	}
	*dst = s[:n]
	return err
}

// strs decodes a string array as array does, but allocates the slice a
// first member of its name yields once, at its final length: the elements
// are read into the decoder's scratch, cleared first as fresh memory would
// be, and copied out. A later member of the same name decodes over the slice the
// earlier one left, as array does; what it can see there is the same, since
// a slice grown on the way keeps every element written before.
func (d *decoder) strs(dst *[]string) error {
	if *dst != nil || d.sc.Peek() != '[' {
		return array(d, dst, 0, (*decoder).str)
	}
	clear(d.scratch[:cap(d.scratch)])
	s := d.scratch[:0]
	err := array(d, &s, 0, (*decoder).str)
	d.scratch, *dst = s, append(s[:0:0], s...)
	return err
}

func (d *decoder) stringMap(dst *map[string]string) error {
	if d.sc.Peek() == 'n' {
		*dst = nil
	} else if *dst == nil {
		*dst = make(map[string]string)
	}
	m := *dst
	return d.object(func(key []byte) error {
		var v string // a null value stores "", whatever the key held
		err := d.str(&v)
		m[d.own(key)] = v
		return err
	})
}

var (
	recordFields  = []string{"key", "checksum", "location", "creator", "owner", "parents", "meta", "txid", "timestamp", "ts"}
	versionFields = []string{"record", "txId", "isDelete", "blockNum", "timestamp"}
)

func (d *decoder) record(rec *Record) error {
	return d.members(recordFields, func(name string) error {
		switch name {
		case "key":
			return d.str(&rec.Key)
		case "checksum":
			return d.str(&rec.Checksum)
		case "location":
			return d.str(&rec.Location)
		case "creator":
			return d.str(&rec.Creator)
		case "owner":
			return d.str(&rec.Owner)
		case "parents":
			return d.strs(&rec.Parents)
		case "meta":
			return d.stringMap(&rec.Meta)
		case "txid":
			return d.str(&rec.TxID)
		case "timestamp":
			return d.time(&rec.Timestamp)
		default:
			return integer(d, &rec.TSMillis, strconv.ParseInt)
		}
	})
}

func (d *decoder) version(h *HistoryRecord) error {
	return d.members(versionFields, func(name string) error {
		switch name {
		case "record":
			if d.sc.Peek() == 'n' {
				h.Record = nil
			} else if h.Record == nil {
				h.Record = new(Record)
			}
			return d.record(h.Record)
		case "txId":
			return d.str(&h.TxID)
		case "isDelete":
			return d.boolean(&h.IsDelete)
		case "blockNum":
			return integer(d, &h.BlockNum, strconv.ParseUint)
		default:
			return d.time(&h.Time)
		}
	})
}

// elements is a capacity for the slice a payload's array decodes into: set
// renders "},{" only between two records.
func elements(payload []byte) int { return bytes.Count(payload, []byte("},{")) + 1 }

// DecodeRecord decodes the payload of get and getByChecksum, and what set
// answers with.
func DecodeRecord(payload []byte) (*Record, error) {
	return decode(payload, true, func(d *decoder, rec **Record) error {
		*rec = new(Record)
		return d.record(*rec)
	})
}

// DecodeRecords decodes the JSON record array that the lineage, descendant
// and field queries answer with.
func DecodeRecords(payload []byte) ([]Record, error) {
	return decode(payload, true, func(d *decoder, recs *[]Record) error {
		return array(d, recs, elements(payload), (*decoder).record)
	})
}

// DecodeHistory decodes the payload of getHistory.
func DecodeHistory(payload []byte) ([]HistoryRecord, error) {
	return decode(payload, true, func(d *decoder, hist *[]HistoryRecord) error {
		return array(d, hist, elements(payload), (*decoder).version)
	})
}

// DecodePage decodes the payload of list and richQuery: ListPage and
// QueryPage are one shape.
func DecodePage(payload []byte) (*ListPage, error) {
	return decode(payload, true, func(d *decoder, page **ListPage) error {
		*page = new(ListPage)
		return d.members([]string{"records", "next"}, func(name string) error {
			if name == "next" {
				return d.str(&(*page).Next)
			}
			return array(d, &(*page).Records, elements(payload), (*decoder).record)
		})
	})
}

// DecodeStats decodes the payload of getStats.
func DecodeStats(payload []byte) (*Stats, error) {
	return decode(payload, false, func(d *decoder, stats **Stats) error {
		*stats = new(Stats)
		return d.members([]string{"records"}, func(string) error { return integer(d, &(*stats).Records, strconv.ParseUint) })
	})
}

// readFields walks the stored record raw — null counts as a record with no
// fields, as it does to encoding/json — and hands read each member whose key
// selects one of names, as that name; the strings read out are copies.
func readFields(raw []byte, read func(d *decoder, name string) error, names ...string) error {
	_, err := decode(raw, false, func(d *decoder, _ *struct{}) error {
		return d.members(names, func(name string) error { return read(d, name) })
	})
	return err
}
