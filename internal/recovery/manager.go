package recovery

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// DefaultKeep is how many checkpoint files a manager retains.
const DefaultKeep = 2

// DefaultCheckpointEvery is the fewest blocks between data-led checkpoints.
const DefaultCheckpointEvery = 16

// Manager decides when the committer captures a checkpoint (Due) and turns
// the captures into durable checkpoint files on the commit pipeline's
// persistence goroutine (behind the watermark), where the block file is
// guaranteed to hold the captured state's height — the consistency
// contract the whole recovery path rests on.
type Manager struct {
	dir    string
	state  statedb.StateDB
	blocks *blockstore.FileStore
	every  uint64

	// Due's own, on the MVCC goroutine: the last capture's height and the
	// block bytes since. lastSize is the newest checkpoint file's size.
	captured uint64
	grown    int64
	lastSize atomic.Int64

	mu         sync.Mutex
	lastHeight uint64
	lastErr    error
}

// NewManager creates a checkpoint manager for one channel of a peer data
// directory, writing under CheckpointDir(dataDir, channel) and retaining
// the newest DefaultKeep files. With every > 0 a checkpoint is due at every
// multiple of every blocks; with 0 the schedule follows the data (Due).
func NewManager(dataDir, channel string, state statedb.StateDB, blocks *blockstore.FileStore, every uint64) *Manager {
	return &Manager{dir: CheckpointDir(dataDir, channel), state: state, blocks: blocks, every: every}
}

// Due is the committer.Config.CheckpointDue hook: whether to capture a
// checkpoint at b's boundary. With a fixed interval that is at its
// multiples; else once the block bytes since the last capture reach the
// newest checkpoint's size, and DefaultCheckpointEvery blocks at the
// earliest. So checkpoint writes stay within a constant factor of the block
// file. A new manager has no capture behind it: a reopened peer checkpoints
// at its first block, and no replay tail outlives two restarts.
func (m *Manager) Due(b *blockstore.Block) bool {
	h := b.Header.Number + 1
	if m.every > 0 {
		return h%m.every == 0
	}
	m.grown += int64(b.Size())
	if h-m.captured < DefaultCheckpointEvery || m.grown < m.lastSize.Load() {
		return false
	}
	m.captured, m.grown = h, 0
	return true
}

// OnCheckpoint is the committer.Config.OnCheckpoint hook: it freezes the
// capture into a checkpoint and publishes the file atomically. It runs
// after the capture's block was appended, and every append is fsynced, so a
// checkpoint refers only to durable blocks; once an append has failed
// (FileStore.Err) the state runs ahead of the block file and no checkpoint
// is written. The capture arrives as a copy-on-write snapshot pinned at the block boundary;
// its entries are read out here, on the persistence goroutine, off the
// apply path. Failures are recorded (Err) rather than propagated — a
// failed checkpoint degrades recovery time, not correctness, since the
// previous checkpoint set stays intact.
func (m *Manager) OnCheckpoint(c committer.Capture) {
	m.persist(m.checkpoint(c.Height, c.State))
}

// Final takes a checkpoint of the current quiesced state — the peer calls
// it on clean shutdown, after the commit pipeline has drained, so the next
// open restores instantly with an empty replay tail. After a failed append
// it writes nothing and returns the failure: the next open replays to the
// last durable block.
func (m *Manager) Final() error {
	h := m.blocks.Height()
	if h == 0 || h == m.LastHeight() {
		return m.Err()
	}
	m.persist(m.checkpoint(h, m.state.Snapshot()))
	return m.Err()
}

// checkpoint builds the checkpoint of sn, the state at the boundary of
// block height h, and releases sn. The state entries are sn's in key order
// and share their values with the store, which never writes a stored value
// again (see statedb.Store).
func (m *Manager) checkpoint(h uint64, sn statedb.Snapshot) *Checkpoint {
	defer sn.Release()
	state := statedb.Collect(sn.All())
	return &Checkpoint{
		Height:      h,
		StateHeight: sn.Height(),
		Fingerprint: committer.Fingerprint(slices.Values(state)),
		State:       state,
	}
}

// persist writes the checkpoint and prunes old files. Once an append has
// failed it writes nothing: the state is then ahead of the block file, and
// Open, restoring such a checkpoint, could not replay back to the file.
func (m *Manager) persist(ck *Checkpoint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.blocks.Err(); err != nil {
		m.lastErr = fmt.Errorf("recovery: no checkpoint past a failed block append: %w", err)
		return
	}
	path, err := WriteCheckpoint(m.dir, ck)
	if err != nil {
		m.lastErr = err
		return
	}
	if fi, err := os.Stat(path); err == nil {
		m.lastSize.Store(fi.Size())
	}
	m.lastHeight = ck.Height
	m.lastErr = nil
	Prune(m.dir)
}

// LastHeight returns the height of the most recent successful checkpoint
// this manager wrote (0 if none yet).
func (m *Manager) LastHeight() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastHeight
}

// Err returns the most recent checkpoint failure, or nil after a success.
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr
}
