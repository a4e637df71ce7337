package recovery

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// fuzzSeedCheckpoint is a populated snapshot covering every codec section.
func fuzzSeedCheckpoint() *Checkpoint {
	return &Checkpoint{
		Height:      7,
		StateHeight: statedb.Version{BlockNum: 7, TxNum: 2},
		Fingerprint: "sha256:abc",
		State: map[string]statedb.VersionedValue{
			"k1": {Value: []byte(`{"v":1}`), Version: statedb.Version{BlockNum: 3, TxNum: 0}},
			"k2": {Value: []byte("raw"), Version: statedb.Version{BlockNum: 7, TxNum: 2}},
		},
		History: map[string][]historydb.Entry{
			"k1": {
				{TxID: "tx-1", BlockNum: 3, TxNum: 0, Value: []byte("v1"),
					Timestamp: time.Unix(1700000000, 42).UTC()},
				{TxID: "tx-2", BlockNum: 5, TxNum: 1, IsDelete: true,
					Timestamp: time.Unix(1700000100, 0).UTC()},
			},
		},
		Indexes: []richquery.IndexDef{{Name: "byts", Field: "ts"}},
		IndexEntries: map[string][]richquery.IndexEntry{
			"byts": {{CKey: "000123", DocKey: "k1"}},
		},
	}
}

// FuzzDecodeCheckpoint throws arbitrary bytes at the checkpoint decoder.
// The recovery contract under damaged media: no panic, no unbounded
// allocation, every failure a structured error (ErrBadChecksum or the
// codec's truncation error) so LoadLatest can fall back to an older
// checkpoint — and every accepted input re-encodes to an identical
// snapshot.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(encodeCheckpoint(&Checkpoint{}))
	f.Add(encodeCheckpoint(fuzzSeedCheckpoint()))
	// Damaged variants: flipped byte (CRC catches), truncation, bad magic,
	// stray tail, junk.
	good := encodeCheckpoint(fuzzSeedCheckpoint())
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(good[:len(good)-5])
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	f.Add(bad)
	f.Add(append(append([]byte(nil), good...), 0x00))
	f.Add([]byte("HPCKPT1\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrBadChecksum) && !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, codec.ErrMalformed) {
				t.Fatalf("unstructured error from decodeCheckpoint: %v", err)
			}
			return
		}
		ck2, err := decodeCheckpoint(encodeCheckpoint(ck))
		if err != nil {
			t.Fatalf("re-decode of re-encoded checkpoint failed: %v", err)
		}
		if !reflect.DeepEqual(ck, ck2) {
			t.Fatalf("checkpoint round-trip mismatch:\n got %#v\nwant %#v", ck2, ck)
		}
	})
}
