// Package recovery makes a peer restartable: it persists periodic,
// checksummed checkpoints of the state database (with history and secondary
// index definitions) next to the durable block file, and on open restores
// the newest valid checkpoint and replays only the block tail through the
// committer's replay path. This is the persistence analog of adaptable
// middleware that reconfigures without losing service: an edge peer that
// loses power mid-commit comes back with state, history, and rich-query
// indexes at the exact pre-crash fingerprint, paying replay cost only for
// the blocks committed since the last checkpoint.
//
// On-disk layout under a peer's data directory, per channel <ch>:
//
//	blocks-<ch>.hpb                       append-only block file (blockstore.FileStore)
//	checkpoints/<ch>/ckpt-<height16>.ckpt height-stamped checkpoint, newest wins
//	checkpoints/<ch>/*.tmp                in-flight writes (ignored, swept on open)
//
// Each checkpoint file carries a trailing CRC-32C over its whole payload
// (see codec.go) and is written via temp-file + rename + fsync, so a crash
// mid-checkpoint leaves either the previous checkpoint set intact or a
// complete new file — never a half-written one that recovery could mistake
// for truth.
package recovery

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// Errors returned by the checkpoint store.
var (
	// ErrNoCheckpoint means no usable checkpoint exists (fresh directory, or
	// every candidate failed validation); recovery then replays from genesis.
	ErrNoCheckpoint = errors.New("recovery: no usable checkpoint")
	// ErrBadChecksum means a checkpoint file's bytes do not match its
	// recorded CRC-32C (bit rot, torn write, or tampering).
	ErrBadChecksum = errors.New("recovery: checkpoint checksum mismatch")
)

// Checkpoint is one durable snapshot of a peer's soft state at a block
// boundary. Everything a peer rebuilds in memory on open is here: world
// state with versions, per-key history, and the secondary-index definitions
// the rich-query subsystem rebuilds its indexes from.
type Checkpoint struct {
	// Height is the number of blocks the snapshot reflects.
	Height uint64
	// StateHeight is the state database's MVCC height at the boundary.
	StateHeight statedb.Version
	// Fingerprint is committer.SnapshotFingerprint over State, recorded at
	// write time — diagnostics and torture tests compare it against live
	// peers. Media integrity is the codec's CRC-32C, not this.
	Fingerprint string
	// State is the full versioned world state.
	State map[string]statedb.VersionedValue
	// History is the full per-key write history.
	History map[string][]historydb.Entry
	// Indexes are the declared secondary-index definitions.
	Indexes []richquery.IndexDef
	// IndexEntries is each index's serialized contents (keyed by index
	// name), captured at the same boundary; restore bulk-loads them
	// instead of re-indexing every document. An index with no entry set
	// here is rebuilt from State.
	IndexEntries map[string][]richquery.IndexEntry
}

const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ckpt"
)

// ckptName returns the height-stamped file name; the zero-padded decimal
// keeps lexical order equal to height order.
func ckptName(height uint64) string {
	return fmt.Sprintf("%s%016d%s", ckptPrefix, height, ckptSuffix)
}

// parseCkptName extracts the height from a checkpoint file name.
func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	var h uint64
	digits := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	if _, err := fmt.Sscanf(digits, "%d", &h); err != nil {
		return 0, false
	}
	return h, true
}

// WriteCheckpoint atomically persists ck into dir (created if needed):
// marshal, checksum, write to a temp file, fsync, rename to the final
// height-stamped name, fsync the directory. It returns the final path.
func WriteCheckpoint(dir string, ck *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("recovery: mkdir %s: %w", dir, err)
	}
	raw := encodeCheckpoint(ck)
	final := filepath.Join(dir, ckptName(ck.Height))
	tmp, err := os.CreateTemp(dir, ckptPrefix+"*.tmp")
	if err != nil {
		return "", fmt.Errorf("recovery: temp checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(raw); err != nil {
		cleanup()
		return "", fmt.Errorf("recovery: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return "", fmt.Errorf("recovery: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("recovery: close checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("recovery: publish checkpoint: %w", err)
	}
	syncDir(dir)
	return final, nil
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// ReadCheckpoint loads one checkpoint file and validates its CRC-32C.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("recovery: read %s: %w", path, err)
	}
	ck, err := decodeCheckpoint(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ck, nil
}

// listCheckpoints returns the heights of all checkpoint files in dir,
// ascending. Temp files and foreign names are ignored.
func listCheckpoints(dir string) []uint64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var heights []uint64
	for _, e := range entries {
		if h, ok := parseCkptName(e.Name()); ok {
			heights = append(heights, h)
		}
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] < heights[j] })
	return heights
}

// LoadLatest returns the newest valid checkpoint whose height does not
// exceed maxHeight (the durable block file's height): a checkpoint ahead of
// the block file — possible when a crash lands inside the commit pipeline's
// in-flight window — cannot be reconciled with the ledger and is skipped.
// Corrupt candidates are skipped too, falling back to the next older one.
// Validity means the file-level CRC passes AND the decoded state re-derives
// the recorded fingerprint, so recovery never trusts a state snapshot it
// cannot verify byte-for-byte. ErrNoCheckpoint means replay must start from
// genesis.
func LoadLatest(dir string, maxHeight uint64) (*Checkpoint, error) {
	heights := listCheckpoints(dir)
	for i := len(heights) - 1; i >= 0; i-- {
		if heights[i] > maxHeight {
			continue
		}
		ck, err := ReadCheckpoint(filepath.Join(dir, ckptName(heights[i])))
		if err != nil {
			continue // damaged candidate: fall back to an older one
		}
		if committer.SnapshotFingerprint(ck.State) != ck.Fingerprint {
			continue // state disagrees with its own record: treat as damaged
		}
		return ck, nil
	}
	return nil, ErrNoCheckpoint
}

// Prune removes all but the newest keep checkpoint files (and sweeps any
// stale temp files). Edge peers run on small flash cards; unbounded
// checkpoint retention would eventually evict the ledger itself.
func Prune(dir string, keep int) {
	if keep < 1 {
		keep = 1
	}
	heights := listCheckpoints(dir)
	for i := 0; i+keep < len(heights); i++ {
		os.Remove(filepath.Join(dir, ckptName(heights[i])))
	}
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") && strings.HasPrefix(e.Name(), ckptPrefix) {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
}
