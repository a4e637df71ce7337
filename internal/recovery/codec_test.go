package recovery

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
)

// goldenCheckpointDigest is the SHA-256 of
// encodeCheckpoint(fuzzSeedCheckpoint()) — a snapshot covering every codec
// section, a delete and a non-zero-nanosecond timestamp included — captured
// at commit daf0768 (before the codec moved onto internal/codec).
// HPCKPT1 files on disk outlive the code that wrote them: a change to this
// digest is a format break, not a refactor.
const goldenCheckpointDigest = "6a70c9d7e3e12f71c4ac3ce6961f1aa0abbad63af1638855569a3ea5205ed05b"

func TestCheckpointBytesPinned(t *testing.T) {
	raw := encodeCheckpoint(fuzzSeedCheckpoint())
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != goldenCheckpointDigest {
		t.Fatalf("HPCKPT1 encoding changed: digest %s, want %s", got, goldenCheckpointDigest)
	}
	back, err := decodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := fuzzSeedCheckpoint(); !reflect.DeepEqual(back, want) {
		t.Fatalf("golden checkpoint did not decode back:\n got %#v\nwant %#v", back, want)
	}
}
