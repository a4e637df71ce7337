package recovery

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"github.com/hyperprov/hyperprov/internal/statedb"
)

// encoded renders ck into memory, as WriteCheckpoint streams it into a file.
func encoded(ck *Checkpoint) []byte {
	var buf bytes.Buffer
	if err := encodeCheckpoint(&buf, ck); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return buf.Bytes()
}

// goldenCheckpointDigest is the SHA-256 of encoded(fuzzSeedCheckpoint()) — a
// snapshot covering every codec section — in the HPCKPT3 format, which
// dropped HPCKPT2's index sections (HPCKPT2 had dropped HPCKPT1's history
// section). Checkpoint files on disk outlive the code that wrote them: a
// change to this digest is a format break, not a refactor.
const goldenCheckpointDigest = "c60e60eacac7454707d6989ef4813d1cff64548baeb736dddb08b82d732ff216"

func TestCheckpointBytesPinned(t *testing.T) {
	raw := encoded(fuzzSeedCheckpoint())
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != goldenCheckpointDigest {
		t.Fatalf("HPCKPT3 encoding changed: digest %s, want %s", got, goldenCheckpointDigest)
	}
	back, err := decodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := fuzzSeedCheckpoint(); !reflect.DeepEqual(back, want) {
		t.Fatalf("golden checkpoint did not decode back:\n got %#v\nwant %#v", back, want)
	}
}

// Writing a checkpoint streams it into the file: a ~1 MiB checkpoint of
// 1,000 records of 1 KiB allocates under a quarter of the bytes it writes
// (the write buffer), where encoding into a growing
// buffer first allocated more than twice them.
func TestCheckpointWriteStreams(t *testing.T) {
	const records, size = 1000, 1024
	ck := &Checkpoint{Height: 1}
	for i := 0; i < records; i++ {
		ck.State = append(ck.State, statedb.KV{Key: fmt.Sprintf("rec-%04d", i), Value: make([]byte, size),
			Version: statedb.Version{TxNum: uint64(i)}})
	}
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	path, err := WriteCheckpoint(dir, ck)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("wrote %d bytes, allocated %d (%.1f%%)", fi.Size(), alloc, 100*float64(alloc)/float64(fi.Size()))
	if alloc*4 >= uint64(fi.Size()) {
		t.Errorf("writing a %d-byte checkpoint allocated %d bytes, budget 25%%", fi.Size(), alloc)
	}
	back, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.State, ck.State) {
		t.Error("streamed checkpoint did not read back")
	}
}
