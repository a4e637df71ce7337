package recovery

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// fuzzSeedCheckpoint is a populated snapshot covering every codec section.
func fuzzSeedCheckpoint() *Checkpoint {
	return &Checkpoint{
		Height:      7,
		StateHeight: statedb.Version{BlockNum: 7, TxNum: 2},
		Fingerprint: "sha256:abc",
		State: []statedb.KV{
			{Key: "k1", Value: []byte(`{"v":1}`), Version: statedb.Version{BlockNum: 3, TxNum: 0}},
			{Key: "k2", Value: []byte("raw"), Version: statedb.Version{BlockNum: 7, TxNum: 2}},
		},
	}
}

// FuzzDecodeCheckpoint throws arbitrary bytes at the checkpoint decoder.
// The recovery contract under damaged media: no panic, no unbounded
// allocation, every failure a structured error (ErrBadChecksum or the
// codec's truncation error) so LoadLatest can fall back to an older
// checkpoint — every accepted input's state in strictly ascending key order,
// the order Store.Restore builds its key set from, and every accepted input
// re-encodes to an identical snapshot. Each input is also decoded re-sealed
// with a valid CRC-32C trailer: a random mutation passes the checksum with
// probability 2^-32, so without it only the seeds reach the count, order and
// truncation checks behind it.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(encoded(&Checkpoint{}))
	f.Add(encoded(fuzzSeedCheckpoint()))
	// Damaged variants: flipped byte (CRC catches), truncation, bad magic,
	// stray tail, junk.
	good := encoded(fuzzSeedCheckpoint())
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(good[:len(good)-5])
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	f.Add(bad)
	f.Add(append(append([]byte(nil), good...), 0x00))
	f.Add([]byte("HPCKPT1\n"))
	f.Add([]byte("HPCKPT2\n"))
	f.Add([]byte{})
	// CRC-valid state out of key order, and a repeated key.
	disordered := fuzzSeedCheckpoint()
	disordered.State[0].Key, disordered.State[1].Key = "k2", "k1"
	f.Add(encoded(disordered))
	disordered.State[0].Key = "k1"
	f.Add(encoded(disordered))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeCheckpoint(t, data)
		checkDecodeCheckpoint(t, codec.AppendChecksum(bytes.Clone(data[:max(len(data)-4, 0)]), 0))
	})
}

// checkDecodeCheckpoint holds decodeCheckpoint to FuzzDecodeCheckpoint's
// contract on one input.
func checkDecodeCheckpoint(t *testing.T, data []byte) {
	t.Helper()
	ck, err := decodeCheckpoint(data)
	if err != nil {
		if !errors.Is(err, ErrBadChecksum) && !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, codec.ErrMalformed) {
			t.Fatalf("unstructured error from decodeCheckpoint: %v", err)
		}
		return
	}
	for i := 1; i < len(ck.State); i++ {
		if ck.State[i].Key <= ck.State[i-1].Key {
			t.Fatalf("decoded state key %q at %d does not sort after %q", ck.State[i].Key, i, ck.State[i-1].Key)
		}
	}
	ck2, err := decodeCheckpoint(encoded(ck))
	if err != nil {
		t.Fatalf("re-decode of re-encoded checkpoint failed: %v", err)
	}
	if !reflect.DeepEqual(ck, ck2) {
		t.Fatalf("checkpoint round-trip mismatch:\n got %#v\nwant %#v", ck2, ck)
	}
}
