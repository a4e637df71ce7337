package recovery

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/hyperprov/hyperprov/internal/codec"
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
//	magic "HPCKPT3\n"
//	height, stateHeight.block, stateHeight.tx, fingerprint
//	state: count, {key, value, ver.block, ver.tx}... (keys strictly ascending)
//	crc32c (4 bytes, big-endian) over everything above
//
// A checkpoint holds the state and nothing derived from it: recovery
// rebuilds history from the blocks, and a peer builds its rich-query
// indexes from the documents. Files in the older formats, HPCKPT1 (with a
// history section) and HPCKPT2 (with index sections), are refused like
// damaged ones.

var ckptMagic = []byte("HPCKPT3\n")

// ckptWriter streams a checkpoint through a bufio.Writer, computing the
// CRC-32C as it goes, so the file is written without ever holding its whole
// encoding. A write error sticks in the bufio.Writer and surfaces at the
// final Flush, so the writes in between ignore it.
type ckptWriter struct {
	w   *bufio.Writer
	crc uint32
	buf []byte // one framed field
}

func (c *ckptWriter) put(p []byte) {
	c.crc = codec.UpdateChecksum(c.crc, p)
	_, _ = c.w.Write(p)
}

func (c *ckptWriter) uvarint(v uint64) { c.buf = codec.AppendUvarint(c.buf[:0], v); c.put(c.buf) }
func (c *ckptWriter) string(s string)  { c.buf = codec.AppendString(c.buf[:0], s); c.put(c.buf) }
func (c *ckptWriter) bytes(p []byte)   { c.uvarint(uint64(len(p))); c.put(p) }

// encodeCheckpoint streams ck in the binary checkpoint format into w,
// checksum included.
func encodeCheckpoint(w io.Writer, ck *Checkpoint) error {
	c := &ckptWriter{w: bufio.NewWriterSize(w, 32<<10)}
	c.put(ckptMagic)
	c.uvarint(ck.Height)
	c.uvarint(ck.StateHeight.BlockNum)
	c.uvarint(ck.StateHeight.TxNum)
	c.string(ck.Fingerprint)

	c.uvarint(uint64(len(ck.State)))
	for _, kv := range ck.State {
		c.string(kv.Key)
		c.bytes(kv.Value)
		c.uvarint(kv.Version.BlockNum)
		c.uvarint(kv.Version.TxNum)
	}
	_, _ = c.w.Write(binary.BigEndian.AppendUint32(c.buf[:0], c.crc))
	return c.w.Flush()
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
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("recovery: decode checkpoint: %w", err)
	}
	return ck, nil
}
