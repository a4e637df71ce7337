package recovery

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
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
	state := []statedb.KV{{Key: fmt.Sprintf("key-%d", h), Value: []byte(`{"owner":"alice"}`),
		Version: statedb.Version{BlockNum: h - 1, TxNum: 0}}}
	return &Checkpoint{
		Height:      h,
		StateHeight: statedb.Version{BlockNum: h - 1, TxNum: 1},
		Fingerprint: committer.Fingerprint(slices.Values(state)),
		State:       state,
	}
}

// withStateKeys is mkCheckpoint(t, h) holding one state entry per key, in
// the order given, and fingerprinted in that order: it passes the CRC and
// the fingerprint check, so only the codec's key-order check refuses it
// when the keys are not strictly ascending.
func withStateKeys(t *testing.T, h uint64, keys ...string) *Checkpoint {
	t.Helper()
	ck := mkCheckpoint(t, h)
	ck.State = nil
	for _, k := range keys {
		ck.State = append(ck.State, statedb.KV{Key: k, Value: []byte(`{"owner":"bob"}`),
			Version: statedb.Version{BlockNum: h - 1}})
	}
	ck.Fingerprint = committer.Fingerprint(slices.Values(ck.State))
	return ck
}

// asFormat re-labels an encoded checkpoint with an older format's magic
// and a recomputed CRC: what an older peer left on disk passes the media
// check and fails only the format check.
func asFormat(magic string) func(raw []byte) []byte {
	return func(raw []byte) []byte {
		body := append([]byte(magic), raw[len(ckptMagic):len(raw)-4]...)
		return codec.AppendChecksum(body, 0)
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
	if !reflect.DeepEqual(got.State, ck.State) {
		t.Errorf("roundtrip state = %+v, want %+v", got.State, ck.State)
	}
}

func TestLoadLatestFallsBackPastDamage(t *testing.T) {
	for name, newest := range map[string]func(t *testing.T) []byte{
		// Bytes flipped inside the payload: the CRC refuses it.
		"flipped-bytes": func(t *testing.T) []byte {
			raw := encoded(mkCheckpoint(t, 12))
			raw[len(raw)/2] ^= 0xff
			return raw
		},
		// CRC-valid and self-consistent, but the state keys are not
		// strictly ascending: the codec refuses it.
		"state-keys-out-of-order": func(t *testing.T) []byte {
			return encoded(withStateKeys(t, 12, "key-b", "key-a"))
		},
		"state-key-repeated": func(t *testing.T) []byte {
			return encoded(withStateKeys(t, 12, "key-a", "key-a"))
		},
		// CRC-valid files in the formats that carried history (HPCKPT1)
		// and rich-query indexes (HPCKPT2): refused like damage.
		"hpckpt1-format": func(t *testing.T) []byte { return asFormat("HPCKPT1\n")(encoded(mkCheckpoint(t, 12))) },
		"hpckpt2-format": func(t *testing.T) []byte { return asFormat("HPCKPT2\n")(encoded(mkCheckpoint(t, 12))) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, h := range []uint64{4, 8} {
				if _, err := WriteCheckpoint(dir, mkCheckpoint(t, h)); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, ckptName(12)), newest(t), 0o644); err != nil {
				t.Fatal(err)
			}
			ck, err := LoadLatest(dir, 100)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Height != 8 {
				t.Errorf("fallback height = %d, want 8", ck.Height)
			}
		})
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
	ck := withStateKeys(t, 5, "key-a", "key-b")
	got, err := decodeCheckpoint(encoded(ck))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("codec roundtrip diverged:\n got %+v\nwant %+v", got, ck)
	}
}

func TestCheckpointCodecRejectsDamage(t *testing.T) {
	raw := encoded(mkCheckpoint(t, 5))
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)/2] },
		"flipped-bit": func(b []byte) []byte { c := append([]byte{}, b...); c[len(c)/3] ^= 1; return c },
		"bad-magic":   func(b []byte) []byte { c := append([]byte{}, b...); c[0] = 'X'; return c },
		"trailing":    func(b []byte) []byte { return append(append([]byte{}, b...), 0) },
		// CRC-valid bytes whose state keys are not strictly ascending.
		"state-keys-out-of-order": func([]byte) []byte {
			return encoded(withStateKeys(t, 5, "key-a", "key-c", "key-b"))
		},
		"state-key-repeated": func([]byte) []byte {
			return encoded(withStateKeys(t, 5, "key-a", "key-b", "key-b"))
		},
		"hpckpt1-format": asFormat("HPCKPT1\n"),
		"hpckpt2-format": asFormat("HPCKPT2\n"),
	} {
		_, err := decodeCheckpoint(mutate(raw))
		if err == nil {
			t.Errorf("%s checkpoint decoded without error", name)
		} else if !errors.Is(err, ErrBadChecksum) && !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("%s checkpoint: error %v wraps neither ErrBadChecksum nor codec.ErrMalformed", name, err)
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
	Prune(dir)
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
	raw := rws.Marshal()
	env := blockstore.Envelope{
		TxID: fmt.Sprintf("tx-%d", n), ChannelID: "ch", Chaincode: "cc",
		Timestamp: time.Unix(1700000000+int64(n), 0).UTC(), RWSet: raw,
	}
	b := blockstore.NewBlock(n, prev, []blockstore.Envelope{env})
	b.TxValidation = []blockstore.ValidationCode{blockstore.TxValid}
	return b
}

// seedLedger writes n blocks into dataDir's block file, checkpointing via a
// Manager every `every` blocks, and returns the final fingerprints.
func seedLedger(t *testing.T, dataDir string, n, every int) (stateFP, histFP string) {
	t.Helper()
	blocks, err := blockstore.OpenFileStore(BlockFilePath(dataDir, testChannel))
	if err != nil {
		t.Fatal(err)
	}
	defer blocks.Close()
	state, err := statedb.NewIndexed(richquery.IndexDef{Name: "by-owner", Field: "owner"})
	if err != nil {
		t.Fatal(err)
	}
	history := historydb.NewIndex(blocks)
	mgr := NewManager(dataDir, testChannel, state, blocks, uint64(every))
	for i := 0; i < n; i++ {
		b := mkStoredBlock(t, uint64(i), blocks.LastHash(),
			fmt.Sprintf("item-%03d", i), fmt.Sprintf("shared-%d", i%3))
		if err := blocks.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := committer.Replay(state, history, blocks, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if every > 0 && (i+1)%every == 0 {
			mgr.OnCheckpoint(committer.Capture{Height: uint64(i + 1), State: state.Snapshot()})
			if err := mgr.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return committer.StateFingerprint(state), history.Fingerprint()
}

// A checkpoint shares the captured snapshot's stored values instead of
// copying them: building one over 1,000 records of 1 KiB allocates a small
// fraction of a record per record (the entry slice and the fingerprint),
// where a deep copy of the state would cost more than 1 KiB each.
func TestCheckpointSharesStoredValues(t *testing.T) {
	const records, size, budget = 1000, 1024, 256 // budget: bytes per record
	state := statedb.New()
	batch := statedb.NewUpdateBatch()
	for i := 0; i < records; i++ {
		batch.Put(fmt.Sprintf("rec-%04d", i), make([]byte, size), statedb.Version{TxNum: uint64(i)})
	}
	if err := state.ApplyUpdates(batch, statedb.Version{TxNum: records}); err != nil {
		t.Fatal(err)
	}
	m := &Manager{}
	sn := state.Snapshot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ck := m.checkpoint(1, sn)
	runtime.ReadMemStats(&after)
	if len(ck.State) != records {
		t.Fatalf("checkpoint holds %d records, want %d", len(ck.State), records)
	}
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / records
	t.Logf("%.0f bytes allocated per record", perRecord)
	if perRecord > budget {
		t.Errorf("building the checkpoint allocated %.0f bytes per %d-byte record, budget %d", perRecord, size, budget)
	}
}

func TestOpenRecoversFromCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	stateFP, histFP := seedLedger(t, dir, 10, 4) // checkpoints at 4 and 8, tail of 2

	got, err := Open(dir, testChannel)
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
}

func TestOpenFromGenesisMatchesCheckpointed(t *testing.T) {
	dir := t.TempDir()
	stateFP, histFP := seedLedger(t, dir, 9, 4)

	// With its checkpoints gone the directory recovers the way production
	// does when no usable checkpoint exists: replay from genesis.
	if err := os.RemoveAll(CheckpointDir(dir, testChannel)); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir, testChannel)
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
	got, err := Open(filepath.Join(t.TempDir(), "fresh"), testChannel)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Blocks.Close()
	if got.Blocks.Height() != 0 || got.Replayed != 0 || got.CheckpointHeight != 0 {
		t.Errorf("fresh open = %+v", got)
	}
}

func TestOpenRequiresChannel(t *testing.T) {
	if _, err := Open(t.TempDir(), ""); err == nil {
		t.Fatal("Open without a channel succeeded")
	}
}

func TestManagerFinalEnablesInstantReopen(t *testing.T) {
	dir := t.TempDir()
	seedLedger(t, dir, 5, 0) // no periodic checkpoints

	// Reopen replaying from genesis, then take a final checkpoint.
	opened, err := Open(dir, testChannel)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Replayed != 5 {
		t.Fatalf("first open replayed %d, want 5", opened.Replayed)
	}
	mgr := NewManager(dir, testChannel, opened.State, opened.Blocks, 0)
	if err := mgr.Final(); err != nil {
		t.Fatal(err)
	}
	if mgr.LastHeight() != 5 {
		t.Fatalf("final checkpoint height = %d, want 5", mgr.LastHeight())
	}
	opened.Blocks.Close()

	again, err := Open(dir, testChannel)
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

// appendBlocks appends n stored blocks to blocks, each writing one fresh key
// of about size bytes, and returns them.
func appendBlocks(t *testing.T, blocks *blockstore.FileStore, n, size int) []*blockstore.Block {
	t.Helper()
	var out []*blockstore.Block
	for range n {
		h := blocks.Height()
		b := mkStoredBlock(t, h, blocks.LastHash(), fmt.Sprintf("item-%05d-%s", h, strings.Repeat("x", size)))
		if err := blocks.Append(b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// due reports the 1-based heights among bs at which m.Due says to capture.
func due(m *Manager, bs []*blockstore.Block) []uint64 {
	var at []uint64
	for _, b := range bs {
		if m.Due(b) {
			at = append(at, b.Header.Number+1)
		}
	}
	return at
}

// With a fixed interval a checkpoint is due at its multiples. Following
// the data, the first is due DefaultCheckpointEvery blocks in, and the next
// once the blocks since reach the newest checkpoint's size — never sooner
// than DefaultCheckpointEvery blocks after the last.
func TestManagerDueFollowsData(t *testing.T) {
	chainDir, dir := t.TempDir(), t.TempDir()
	source, err := blockstore.OpenFileStore(BlockFilePath(chainDir, testChannel))
	if err != nil {
		t.Fatal(err)
	}
	defer source.Close()
	chain := appendBlocks(t, source, 100, 100)
	// The managers run over an empty ledger: Due is handed each block.
	blocks, err := blockstore.OpenFileStore(BlockFilePath(dir, testChannel))
	if err != nil {
		t.Fatal(err)
	}
	defer blocks.Close()

	fixed := NewManager(dir, testChannel, statedb.New(), blocks, 10)
	if got := due(fixed, chain[:40]); !slices.Equal(got, []uint64{10, 20, 30, 40}) {
		t.Errorf("fixed interval 10: due at %v", got)
	}

	m := NewManager(dir, testChannel, statedb.New(), blocks, 0)
	if m.captured != 0 || m.grown != 0 {
		t.Fatalf("fresh manager resumes at %d with %d bytes", m.captured, m.grown)
	}
	if got := due(m, chain[:20]); !slices.Equal(got, []uint64{DefaultCheckpointEvery}) {
		t.Errorf("first checkpoint due at %v, want [%d]", got, DefaultCheckpointEvery)
	}
	// The checkpoint written at 16 holds as many bytes as 30 blocks.
	size := int64(chain[50].Size()) * 30
	m.lastSize.Store(size)
	rest := chain[20:]
	got := due(m, rest)
	if len(got) == 0 || got[0] < DefaultCheckpointEvery+29 || got[0] > DefaultCheckpointEvery+31 {
		t.Errorf("after a 30-block checkpoint, next due at %v, want about %d", got, DefaultCheckpointEvery+30)
	}
	// A small checkpoint still waits DefaultCheckpointEvery blocks.
	m.lastSize.Store(1)
	m.captured, m.grown = 0, 0
	if got := due(m, chain[:40]); !slices.Equal(got, []uint64{16, 32}) {
		t.Errorf("small checkpoints due at %v, want [16 32]", got)
	}
}
