package rwset

import (
	"bytes"
	"errors"
	"testing"

	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// FuzzUnmarshalRWSet throws arbitrary bytes at the rwset decoder — the
// bytes every envelope carries into commit-time validation. No panic, every
// failure a structured codec sentinel, and every accepted input re-encodes
// to a canonical form that decodes and re-encodes to the same bytes.
func FuzzUnmarshalRWSet(f *testing.F) {
	b := NewBuilder()
	b.AddRead("k1", &statedb.Version{BlockNum: 3, TxNum: 1})
	b.AddRead("k0", nil)
	b.AddWrite("k1", []byte("v"))
	b.AddDelete("k2")
	b.AddRangeRead("a", "z", []string{"k0", "k1"})
	b.AddQueryRead([]byte(`{"selector":{"owner":"alice"}}`), []string{"k1"})
	good := b.Build().Marshal()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 0x00))
	f.Add([]byte("HPRW"))
	f.Add([]byte{})
	// JSON is not an rwset encoding: must-reject input.
	f.Add([]byte(`{"reads":[{"key":"k0"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rws, err := Unmarshal(data)
		if err != nil {
			if !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, codec.ErrMalformed) &&
				!errors.Is(err, codec.ErrChecksum) {
				t.Fatalf("unstructured error from Unmarshal: %v", err)
			}
			return
		}
		first := rws.Marshal()
		rt, err := Unmarshal(first)
		if err != nil {
			t.Fatalf("re-decode of re-encoded rwset failed: %v", err)
		}
		if again := rt.Marshal(); !bytes.Equal(first, again) {
			t.Fatal("canonical rwset encoding is not stable across a round trip")
		}
	})
}
