package recovery

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

const testChannel = "provchannel"

// mkCheckpoint builds a small self-consistent checkpoint at height h.
func mkCheckpoint(t *testing.T, h uint64) *Checkpoint {
	t.Helper()
	state := map[string]statedb.VersionedValue{
		fmt.Sprintf("key-%d", h): {Value: []byte(`{"owner":"alice"}`),
			Version: statedb.Version{BlockNum: h - 1, TxNum: 0}},
	}
	return &Checkpoint{
		Height:      h,
		StateHeight: statedb.Version{BlockNum: h - 1, TxNum: 1},
		Fingerprint: committer.SnapshotFingerprint(state),
		State:       state,
		History: map[string][]historydb.Entry{
			"key": {{TxID: "tx", BlockNum: h - 1, Value: []byte("v"),
				Timestamp: time.Unix(1700000000, 0).UTC()}},
		},
		Indexes: []richquery.IndexDef{{Name: "by-owner", Field: "owner"}},
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	ck := mkCheckpoint(t, 7)
	path, err := WriteCheckpoint(dir, ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Height != 7 || got.StateHeight != ck.StateHeight || got.Fingerprint != ck.Fingerprint {
		t.Errorf("roundtrip header = %+v", got)
	}
	if len(got.State) != 1 || len(got.History) != 1 || len(got.Indexes) != 1 {
		t.Errorf("roundtrip contents: %d state, %d history, %d indexes",
			len(got.State), len(got.History), len(got.Indexes))
	}
}

func TestLoadLatestFallsBackPastDamage(t *testing.T) {
	dir := t.TempDir()
	for _, h := range []uint64{4, 8, 12} {
		if _, err := WriteCheckpoint(dir, mkCheckpoint(t, h)); err != nil {
			t.Fatal(err)
		}
	}
	// Damage the newest file: flip bytes inside the payload.
	newest := filepath.Join(dir, ckptName(12))
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadLatest(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Height != 8 {
		t.Errorf("fallback height = %d, want 8", ck.Height)
	}
}

func TestLoadLatestSkipsCheckpointsAheadOfLedger(t *testing.T) {
	dir := t.TempDir()
	for _, h := range []uint64{4, 8} {
		if _, err := WriteCheckpoint(dir, mkCheckpoint(t, h)); err != nil {
			t.Fatal(err)
		}
	}
	// The block file only confirms 6 blocks: the height-8 checkpoint (taken
	// while later blocks were still in the pipeline) must be skipped.
	ck, err := LoadLatest(dir, 6)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Height != 4 {
		t.Errorf("height = %d, want 4", ck.Height)
	}
	if _, err := LoadLatest(dir, 3); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("all-ahead: err = %v, want ErrNoCheckpoint", err)
	}
}

func TestCheckpointCodecRoundtripDetail(t *testing.T) {
	ck := mkCheckpoint(t, 5)
	ck.IndexEntries = map[string][]richquery.IndexEntry{
		"by-owner": {{CKey: "a", DocKey: "k1"}, {CKey: "b", DocKey: "k2"}},
	}
	ck.History["del"] = []historydb.Entry{{TxID: "txd", BlockNum: 2, TxNum: 1, IsDelete: true,
		Timestamp: time.Date(2019, 6, 1, 12, 0, 0, 987654321, time.UTC)}}
	got, err := decodeCheckpoint(encodeCheckpoint(ck))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("codec roundtrip diverged:\n got %+v\nwant %+v", got, ck)
	}
}

func TestCheckpointCodecRejectsDamage(t *testing.T) {
	raw := encodeCheckpoint(mkCheckpoint(t, 5))
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)/2] },
		"flipped-bit": func(b []byte) []byte { c := append([]byte{}, b...); c[len(c)/3] ^= 1; return c },
		"bad-magic":   func(b []byte) []byte { c := append([]byte{}, b...); c[0] = 'X'; return c },
		"trailing":    func(b []byte) []byte { return append(append([]byte{}, b...), 0) },
	} {
		if _, err := decodeCheckpoint(mutate(raw)); err == nil {
			t.Errorf("%s checkpoint decoded without error", name)
		}
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	for _, h := range []uint64{2, 4, 6, 8} {
		if _, err := WriteCheckpoint(dir, mkCheckpoint(t, h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, ckptPrefix+"zzz.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	Prune(dir, 2)
	if got := listCheckpoints(dir); len(got) != 2 || got[0] != 6 || got[1] != 8 {
		t.Errorf("after prune: %v, want [6 8]", got)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptPrefix+"zzz.tmp")); !os.IsNotExist(err) {
		t.Error("stale temp file not swept")
	}
}

// mkStoredBlock builds a committed-looking block: one envelope writing a
// JSON doc per key, validation flags settled. Replay never re-checks
// signatures, so none are needed.
func mkStoredBlock(t *testing.T, n uint64, prev []byte, keys ...string) *blockstore.Block {
	t.Helper()
	rws := &rwset.ReadWriteSet{}
	for _, k := range keys {
		doc, err := json.Marshal(map[string]any{"owner": "owner-" + k, "key": k})
		if err != nil {
			t.Fatal(err)
		}
		rws.Writes = append(rws.Writes, rwset.Write{Key: k, Value: doc})
	}
	raw, err := rws.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	env := blockstore.Envelope{
		TxID: fmt.Sprintf("tx-%d", n), ChannelID: "ch", Chaincode: "cc",
		Timestamp: time.Unix(1700000000+int64(n), 0).UTC(), RWSet: raw,
	}
	b, err := blockstore.NewBlock(n, prev, []blockstore.Envelope{env})
	if err != nil {
		t.Fatal(err)
	}
	b.TxValidation = []blockstore.ValidationCode{blockstore.TxValid}
	return b
}

// seedLedger writes n blocks into dataDir's block file, checkpointing via a
// Manager every `every` blocks, and returns the final fingerprints.
func seedLedger(t *testing.T, dataDir string, n, every int) (stateFP, histFP string) {
	t.Helper()
	blocks, err := blockstore.OpenFileStoreWithPolicy(BlockFilePath(dataDir, testChannel), blockstore.SyncEachAppend)
	if err != nil {
		t.Fatal(err)
	}
	defer blocks.Close()
	state, err := statedb.NewIndexed(richquery.IndexDef{Name: "by-owner", Field: "owner"})
	if err != nil {
		t.Fatal(err)
	}
	history := historydb.New()
	mgr := NewManager(dataDir, testChannel, DefaultKeep, state, history, blocks)
	for i := 0; i < n; i++ {
		b := mkStoredBlock(t, uint64(i), blocks.LastHash(),
			fmt.Sprintf("item-%03d", i), fmt.Sprintf("shared-%d", i%3))
		if err := blocks.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := committer.Replay(state, history, []*blockstore.Block{b}); err != nil {
			t.Fatal(err)
		}
		if every > 0 && (i+1)%every == 0 {
			mgr.OnCheckpoint(committer.Capture{
				Height:       uint64(i + 1),
				StateHeight:  state.Height(),
				State:        state.Snapshot(),
				IndexEntries: state.IndexEntries(),
			})
			if err := mgr.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return committer.StateFingerprint(state), history.Fingerprint()
}

func TestOpenRecoversFromCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	stateFP, histFP := seedLedger(t, dir, 10, 4) // checkpoints at 4 and 8, tail of 2

	got, err := Open(dir, Options{Channel: testChannel})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Blocks.Close()
	if got.CheckpointHeight != 8 || got.Replayed != 2 {
		t.Errorf("recovered from checkpoint %d with %d replayed, want 8 and 2",
			got.CheckpointHeight, got.Replayed)
	}
	if fp := committer.StateFingerprint(got.State); fp != stateFP {
		t.Errorf("state fingerprint = %s, want %s", fp, stateFP)
	}
	if fp := got.History.Fingerprint(); fp != histFP {
		t.Errorf("history fingerprint = %s, want %s", fp, histFP)
	}
	// The rich-query index came back too, serving indexed queries.
	res, err := got.State.ExecuteQuery([]byte(`{"selector":{"owner":"owner-item-003"}}`))
	if err != nil || len(res.KVs) != 1 || res.KVs[0].Key != "item-003" {
		t.Errorf("indexed query after recovery: %v %+v", err, res)
	}
}

func TestOpenFromGenesisMatchesCheckpointed(t *testing.T) {
	dir := t.TempDir()
	stateFP, histFP := seedLedger(t, dir, 9, 4)

	// With its checkpoints gone the directory recovers the way production
	// does when no usable checkpoint exists: replay from genesis.
	if err := os.RemoveAll(CheckpointDir(dir, testChannel)); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir, Options{Channel: testChannel})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Blocks.Close()
	if got.CheckpointHeight != 0 || got.Replayed != 9 {
		t.Errorf("genesis open: checkpoint %d, replayed %d", got.CheckpointHeight, got.Replayed)
	}
	if fp := committer.StateFingerprint(got.State); fp != stateFP {
		t.Errorf("state fingerprint = %s, want %s", fp, stateFP)
	}
	if fp := got.History.Fingerprint(); fp != histFP {
		t.Errorf("history fingerprint = %s, want %s", fp, histFP)
	}
}

func TestOpenFreshDirectory(t *testing.T) {
	got, err := Open(filepath.Join(t.TempDir(), "fresh"), Options{Channel: testChannel})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Blocks.Close()
	if got.Blocks.Height() != 0 || got.Replayed != 0 || got.CheckpointHeight != 0 {
		t.Errorf("fresh open = %+v", got)
	}
}

func TestOpenRequiresChannel(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("Open without a channel succeeded")
	}
}

func TestManagerFinalEnablesInstantReopen(t *testing.T) {
	dir := t.TempDir()
	seedLedger(t, dir, 5, 0) // no periodic checkpoints

	// Reopen replaying from genesis, then take a final checkpoint.
	opened, err := Open(dir, Options{Channel: testChannel})
	if err != nil {
		t.Fatal(err)
	}
	if opened.Replayed != 5 {
		t.Fatalf("first open replayed %d, want 5", opened.Replayed)
	}
	mgr := NewManager(dir, testChannel, DefaultKeep, opened.State, opened.History, opened.Blocks)
	if err := mgr.Final(); err != nil {
		t.Fatal(err)
	}
	if mgr.LastHeight() != 5 {
		t.Fatalf("final checkpoint height = %d, want 5", mgr.LastHeight())
	}
	opened.Blocks.Close()

	again, err := Open(dir, Options{Channel: testChannel})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Blocks.Close()
	if again.CheckpointHeight != 5 || again.Replayed != 0 {
		t.Errorf("reopen after Final: checkpoint %d, replayed %d, want 5 and 0",
			again.CheckpointHeight, again.Replayed)
	}
}

func TestCodecHostileCountDoesNotPanic(t *testing.T) {
	// Hand-build a frame whose state count claims 2^61 entries but whose
	// CRC-32C is correct (the CRC is a media check; a tamperer can always
	// recompute it). Decoding must fail cleanly — a panic here would break
	// LoadLatest's fall-back-to-older-checkpoint path.
	buf := append([]byte{}, ckptMagic...)
	buf = binary.AppendUvarint(buf, 1)     // height
	buf = binary.AppendUvarint(buf, 0)     // stateHeight.block
	buf = binary.AppendUvarint(buf, 0)     // stateHeight.tx
	buf = binary.AppendUvarint(buf, 0)     // fingerprint len
	buf = binary.AppendUvarint(buf, 0)     // index defs
	buf = binary.AppendUvarint(buf, 0)     // index entries
	buf = binary.AppendUvarint(buf, 1<<61) // hostile state count
	buf = codec.AppendChecksum(buf, 0)
	if _, err := decodeCheckpoint(buf); err == nil {
		t.Fatal("hostile count decoded without error")
	}
}

func TestLoadLatestSkipsFingerprintMismatch(t *testing.T) {
	// A checkpoint whose decoded state no longer matches its recorded
	// fingerprint (codec defect, tamper with recomputed CRC) must be
	// treated as damaged: fall back to the older good checkpoint.
	dir := t.TempDir()
	if _, err := WriteCheckpoint(dir, mkCheckpoint(t, 4)); err != nil {
		t.Fatal(err)
	}
	bad := mkCheckpoint(t, 8)
	bad.Fingerprint = "0000deadbeef"
	if _, err := WriteCheckpoint(dir, bad); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadLatest(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Height != 4 {
		t.Errorf("height = %d, want fallback to 4", ck.Height)
	}
}
