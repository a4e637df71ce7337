package recovery

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// Binary checkpoint codec. Checkpoints are read on every peer open, on
// hardware as small as a Raspberry Pi, so the format is built for decode
// speed: uvarint-framed sections in one pass, no reflection, and a trailing
// CRC-32C (hardware-accelerated on both amd64 and the paper's ARM boards)
// as the media-integrity gate. JSON was measured an order of magnitude
// slower to decode at realistic state sizes, which put checkpoint restore
// in the same cost class as the genesis replay it exists to avoid.
//
// Layout (all integers uvarint, strings/bytes length-prefixed):
//
//	magic "HPCKPT1\n"
//	height, stateHeight.block, stateHeight.tx, fingerprint
//	index defs:    count, {name, field}...
//	index entries: count, {name, entryCount, {ckey, docKey}...}...
//	state:         count, {key, value, ver.block, ver.tx}... (keys strictly ascending)
//	history:       keyCount, {key, entryCount,
//	                 {txid, block, tx, value, isDelete, unixSec, nanos}...}...
//	crc32c (4 bytes, big-endian) over everything above

var ckptMagic = []byte("HPCKPT1\n")

// encodeCheckpoint renders ck in the binary checkpoint format, checksum
// included.
func encodeCheckpoint(ck *Checkpoint) []byte {
	// Pre-size roughly: values plus framing overhead.
	buf := make([]byte, 0, 1<<20)
	buf = append(buf, ckptMagic...)
	buf = codec.AppendUvarint(buf, ck.Height)
	buf = codec.AppendUvarint(buf, ck.StateHeight.BlockNum)
	buf = codec.AppendUvarint(buf, ck.StateHeight.TxNum)
	buf = codec.AppendString(buf, ck.Fingerprint)

	buf = codec.AppendUvarint(buf, uint64(len(ck.Indexes)))
	for _, def := range ck.Indexes {
		buf = codec.AppendString(buf, def.Name)
		buf = codec.AppendString(buf, def.Field)
	}
	buf = codec.AppendUvarint(buf, uint64(len(ck.IndexEntries)))
	for _, name := range sortedKeys(ck.IndexEntries) {
		entries := ck.IndexEntries[name]
		buf = codec.AppendString(buf, name)
		buf = codec.AppendUvarint(buf, uint64(len(entries)))
		for _, e := range entries {
			buf = codec.AppendString(buf, e.CKey)
			buf = codec.AppendString(buf, e.DocKey)
		}
	}
	buf = codec.AppendUvarint(buf, uint64(len(ck.State)))
	for _, kv := range ck.State {
		buf = codec.AppendString(buf, kv.Key)
		buf = codec.AppendBytes(buf, kv.Value)
		buf = codec.AppendUvarint(buf, kv.Version.BlockNum)
		buf = codec.AppendUvarint(buf, kv.Version.TxNum)
	}
	buf = codec.AppendUvarint(buf, uint64(len(ck.History)))
	for _, key := range sortedKeys(ck.History) {
		entries := ck.History[key]
		buf = codec.AppendString(buf, key)
		buf = codec.AppendUvarint(buf, uint64(len(entries)))
		for i := range entries {
			e := &entries[i]
			buf = codec.AppendString(buf, e.TxID)
			buf = codec.AppendUvarint(buf, e.BlockNum)
			buf = codec.AppendUvarint(buf, e.TxNum)
			buf = codec.AppendBytes(buf, e.Value)
			buf = codec.AppendBool(buf, e.IsDelete)
			t := e.Timestamp.UTC()
			buf = codec.AppendUvarint(buf, uint64(t.Unix()))
			buf = codec.AppendUvarint(buf, uint64(t.Nanosecond()))
		}
	}
	return codec.AppendChecksum(buf, 0)
}

// decodeCheckpoint parses and integrity-checks the binary checkpoint form.
// Element counts are bounded by the bytes remaining (codec.Dec.Count), so a
// damaged or hostile count field — CRC-32C is a media check, not
// tamper-proofing — degrades to a decode error instead of a make() panic
// that would defeat LoadLatest's fall-back-to-older-checkpoint path. State
// comes back in file order, and a state key that does not sort strictly
// after the one before it is refused the same way: Store.Restore builds its
// key set from that order without sorting.
func decodeCheckpoint(raw []byte) (*Checkpoint, error) {
	body, err := codec.VerifyChecksum(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadChecksum, err)
	}
	if !bytes.HasPrefix(body, ckptMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadChecksum)
	}
	d := codec.NewDec(body[len(ckptMagic):])
	ck := &Checkpoint{}
	ck.Height = d.Uvarint()
	ck.StateHeight.BlockNum = d.Uvarint()
	ck.StateHeight.TxNum = d.Uvarint()
	ck.Fingerprint = d.String()

	if n := d.Count(); n > 0 {
		ck.Indexes = make([]richquery.IndexDef, n)
		for i := range ck.Indexes {
			ck.Indexes[i].Name = d.String()
			ck.Indexes[i].Field = d.String()
		}
	}
	if n := d.Count(); n > 0 {
		ck.IndexEntries = make(map[string][]richquery.IndexEntry, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			name := d.String()
			entries := make([]richquery.IndexEntry, d.Count())
			for j := range entries {
				entries[j].CKey = d.String()
				entries[j].DocKey = d.String()
			}
			ck.IndexEntries[name] = entries
		}
	}
	if n := d.Count(); n > 0 {
		ck.State = make([]statedb.KV, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			kv := &ck.State[i]
			kv.Key = d.String()
			kv.Value = d.Bytes()
			kv.Version.BlockNum = d.Uvarint()
			kv.Version.TxNum = d.Uvarint()
			if i > 0 && kv.Key <= ck.State[i-1].Key {
				d.Fail(fmt.Errorf("%w: state key %q not after %q", codec.ErrMalformed, kv.Key, ck.State[i-1].Key))
			}
		}
	}
	histN := d.Count()
	ck.History = make(map[string][]historydb.Entry, histN)
	for i := 0; i < histN && d.Err() == nil; i++ {
		key := d.String()
		entries := make([]historydb.Entry, d.Count())
		for j := range entries {
			e := &entries[j]
			e.TxID = d.String()
			e.BlockNum = d.Uvarint()
			e.TxNum = d.Uvarint()
			e.Value = d.Bytes()
			e.IsDelete = d.Byte() == 1
			sec := int64(d.Uvarint())
			nsec := int64(d.Uvarint())
			e.Timestamp = time.Unix(sec, nsec).UTC()
		}
		ck.History[key] = entries
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("recovery: decode checkpoint: %w", err)
	}
	return ck, nil
}

// sortedKeys returns m's keys sorted, for deterministic encoding.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
