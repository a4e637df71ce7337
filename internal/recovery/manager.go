package recovery

import (
	"fmt"
	"slices"
	"sync"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// DefaultKeep is how many checkpoint files a manager retains.
const DefaultKeep = 2

// indexedSnapshot is implemented by snapshots that pin rich-query indexes
// (a statedb.Store's): the manager persists their definitions and entries
// at the snapshot's boundary, so a recovered peer bulk-loads the same
// indexes.
type indexedSnapshot interface {
	IndexDefs() []richquery.IndexDef
	IndexEntries() map[string][]richquery.IndexEntry
}

// Manager turns the committer's checkpoint captures into durable checkpoint
// files. It runs on the commit pipeline's persistence goroutine (behind the
// watermark), where the history database and block file are guaranteed to
// agree with the captured state's height — the consistency contract the
// whole recovery path rests on.
type Manager struct {
	dir     string
	state   statedb.StateDB
	history *historydb.DB
	blocks  *blockstore.FileStore

	mu         sync.Mutex
	lastHeight uint64
	lastErr    error
}

// NewManager creates a checkpoint manager for one channel of a peer data
// directory, writing under CheckpointDir(dataDir, channel) and retaining
// the newest DefaultKeep files.
func NewManager(dataDir, channel string, state statedb.StateDB, history *historydb.DB, blocks *blockstore.FileStore) *Manager {
	return &Manager{
		dir:     CheckpointDir(dataDir, channel),
		state:   state,
		history: history,
		blocks:  blocks,
	}
}

// OnCheckpoint is the committer.Config.OnCheckpoint hook: it freezes the
// capture into a full checkpoint (adding history), fsyncs the block file so
// the checkpoint never refers past durable blocks, and publishes the file
// atomically. The capture arrives as a copy-on-write snapshot pinned at the
// block boundary; its entries and index entries are read out here, on the
// persistence goroutine, off the apply path. Failures are recorded (Err)
// rather than propagated — a failed checkpoint degrades recovery time, not
// correctness, since the previous checkpoint set stays intact.
func (m *Manager) OnCheckpoint(c committer.Capture) {
	m.persist(m.checkpoint(c.Height, c.State))
}

// Final takes a checkpoint of the current quiesced state — the peer calls
// it on clean shutdown, after the commit pipeline has drained, so the next
// open restores instantly with an empty replay tail.
func (m *Manager) Final() error {
	h := m.blocks.Height()
	if h == 0 || h == m.LastHeight() {
		return m.Err()
	}
	m.persist(m.checkpoint(h, m.state.Snapshot()))
	return m.Err()
}

// checkpoint builds the checkpoint of sn, the state at the boundary of
// block height h, and the history, and releases sn. The state entries are
// sn's in key order and share their values with the store, which never
// writes a stored value again (see statedb.Store).
func (m *Manager) checkpoint(h uint64, sn statedb.Snapshot) *Checkpoint {
	defer sn.Release()
	state := statedb.Collect(sn.All())
	ck := &Checkpoint{
		Height:      h,
		StateHeight: sn.Height(),
		Fingerprint: committer.Fingerprint(slices.Values(state)),
		State:       state,
		History:     m.history.Snapshot(),
	}
	if ixs, ok := sn.(indexedSnapshot); ok {
		ck.Indexes, ck.IndexEntries = ixs.IndexDefs(), ixs.IndexEntries()
	}
	return ck
}

// persist fsyncs the ledger, writes the checkpoint, and prunes old files.
func (m *Manager) persist(ck *Checkpoint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.blocks.Sync(); err != nil {
		m.lastErr = fmt.Errorf("recovery: sync block file before checkpoint: %w", err)
		return
	}
	if _, err := WriteCheckpoint(m.dir, ck); err != nil {
		m.lastErr = err
		return
	}
	m.lastHeight = ck.Height
	m.lastErr = nil
	Prune(m.dir, DefaultKeep)
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
