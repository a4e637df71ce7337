// Package recovery makes a peer restartable: it persists checksummed
// checkpoints of the world state next to the durable block file, on a
// schedule that follows the data (Manager.Due), and on open restores the
// newest valid checkpoint, re-indexes history from the blocks below it,
// and replays only the block tail through the committer's replay path.
// This is the persistence analog of adaptable middleware that reconfigures
// without losing service: an edge peer that loses power mid-commit comes
// back with state and history at the exact pre-crash fingerprint, paying
// replay cost only for the blocks committed since the last checkpoint.
// A checkpoint holds no rich-query index: those are derived from the
// documents in state, and the peer builds them when its chaincode is
// installed, as on a fresh peer.
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
	"slices"
	"sort"
	"strings"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/committer"
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

// Checkpoint is one durable snapshot of a peer's world state, with
// versions, at a block boundary.
type Checkpoint struct {
	// Height is the number of blocks the snapshot reflects.
	Height uint64
	// StateHeight is the state database's MVCC height at the boundary.
	StateHeight statedb.Version
	// Fingerprint is committer.Fingerprint over State, recorded at write
	// time and checked on load — diagnostics and torture tests compare it
	// against live peers. Media integrity is the codec's CRC-32C, not this.
	Fingerprint string
	// State is the full versioned world state: every entry of the captured
	// snapshot, in strictly ascending key order.
	State []statedb.KV
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
// stream it into a temp file, fsync, rename to the final height-stamped
// name, fsync the directory. It returns the final path.
func WriteCheckpoint(dir string, ck *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("recovery: mkdir %s: %w", dir, err)
	}
	final := filepath.Join(dir, ckptName(ck.Height))
	tmp, err := os.CreateTemp(dir, ckptPrefix+"*.tmp")
	if err != nil {
		return "", fmt.Errorf("recovery: temp checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if err := encodeCheckpoint(tmp, ck); err != nil {
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
	blockstore.SyncDir(dir)
	return final, nil
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
		if committer.Fingerprint(slices.Values(ck.State)) != ck.Fingerprint {
			continue // state disagrees with its own record: treat as damaged
		}
		return ck, nil
	}
	return nil, ErrNoCheckpoint
}

// Prune removes all but the newest DefaultKeep checkpoint files (and sweeps
// any stale temp files). Edge peers run on small flash cards; unbounded
// checkpoint retention would eventually evict the ledger itself.
func Prune(dir string) {
	heights := listCheckpoints(dir)
	for i := 0; i+DefaultKeep < len(heights); i++ {
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
