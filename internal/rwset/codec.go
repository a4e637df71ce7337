package rwset

import (
	"encoding/json"
	"fmt"

	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// rwsetMagic prefixes the canonical binary rwset encoding.
var rwsetMagic = []byte("HPRW")

// rwsetVersion is the current version byte; decoders reject others.
const rwsetVersion = 1

// appendRWSet appends the canonical binary encoding. The rwset must
// already be normalized (Marshal normalizes before calling).
func appendRWSet(buf []byte, rws *ReadWriteSet) []byte {
	buf = append(buf, rwsetMagic...)
	buf = append(buf, rwsetVersion)
	buf = codec.AppendUvarint(buf, uint64(len(rws.Reads)))
	for i := range rws.Reads {
		r := &rws.Reads[i]
		buf = codec.AppendString(buf, r.Key)
		buf = codec.AppendBool(buf, r.Version != nil)
		if r.Version != nil {
			buf = codec.AppendUvarint(buf, r.Version.BlockNum)
			buf = codec.AppendUvarint(buf, r.Version.TxNum)
		}
	}
	buf = codec.AppendUvarint(buf, uint64(len(rws.Writes)))
	for i := range rws.Writes {
		w := &rws.Writes[i]
		buf = codec.AppendString(buf, w.Key)
		buf = codec.AppendBytes(buf, w.Value)
		buf = codec.AppendBool(buf, w.IsDelete)
	}
	buf = codec.AppendUvarint(buf, uint64(len(rws.RangeReads)))
	for i := range rws.RangeReads {
		rr := &rws.RangeReads[i]
		buf = codec.AppendString(buf, rr.StartKey)
		buf = codec.AppendString(buf, rr.EndKey)
		buf = appendStrings(buf, rr.Keys)
	}
	buf = codec.AppendUvarint(buf, uint64(len(rws.QueryReads)))
	for i := range rws.QueryReads {
		qr := &rws.QueryReads[i]
		buf = codec.AppendBytes(buf, qr.Query)
		buf = appendStrings(buf, qr.Keys)
	}
	return buf
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = codec.AppendString(buf, s)
	}
	return buf
}

func decodeStrings(d *codec.Dec) []string {
	n := d.Count()
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.String()
	}
	return ss
}

// readHeader consumes a binary rwset's magic and version.
func readHeader(d *codec.Dec) {
	if ver := d.Magic(rwsetMagic); d.Err() == nil && ver != rwsetVersion {
		d.Fail(fmt.Errorf("%w: rwset version %d (supported: %d)", codec.ErrMalformed, ver, rwsetVersion))
	}
}

// decodeRWSet decodes a binary rwset. Byte fields alias b.
func decodeRWSet(b []byte) (*ReadWriteSet, error) {
	d := codec.NewDec(b)
	readHeader(d)
	var rws ReadWriteSet
	if n := d.Count(); n > 0 {
		rws.Reads = make([]Read, n)
		for i := range rws.Reads {
			rws.Reads[i].Key = d.String()
			if d.Bool() {
				rws.Reads[i].Version = &statedb.Version{
					BlockNum: d.Uvarint(),
					TxNum:    d.Uvarint(),
				}
			}
		}
	}
	if n := d.Count(); n > 0 {
		rws.Writes = make([]Write, n)
		for i := range rws.Writes {
			rws.Writes[i].Key = d.String()
			rws.Writes[i].Value = d.BytesShared()
			rws.Writes[i].IsDelete = d.Bool()
		}
	}
	if n := d.Count(); n > 0 {
		rws.RangeReads = make([]RangeRead, n)
		for i := range rws.RangeReads {
			rws.RangeReads[i].StartKey = d.String()
			rws.RangeReads[i].EndKey = d.String()
			rws.RangeReads[i].Keys = decodeStrings(d)
		}
	}
	if n := d.Count(); n > 0 {
		rws.QueryReads = make([]QueryRead, n)
		for i := range rws.QueryReads {
			rws.QueryReads[i].Query = json.RawMessage(d.BytesShared())
			rws.QueryReads[i].Keys = decodeStrings(d)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("rwset: codec: %w", err)
	}
	return &rws, nil
}

// ScanWrites hands fn each write of the encoded rwset b, in key order, until
// fn returns false, allocating nothing: key and value alias b. It reports a
// damaged encoding up to the writes.
func ScanWrites(b []byte, fn func(key, value []byte, isDelete bool) bool) error {
	d := codec.NewDec(b)
	readHeader(d)
	for n := d.Count(); n > 0 && d.Err() == nil; n-- {
		d.BytesShared()
		if d.Bool() {
			d.Uvarint()
			d.Uvarint()
		}
	}
	for n := d.Count(); n > 0; n-- {
		key, value, isDelete := d.BytesShared(), d.BytesShared(), d.Bool()
		if d.Err() != nil || !fn(key, value, isDelete) {
			break
		}
	}
	return d.Err()
}
