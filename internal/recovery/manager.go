package recovery

import (
	"fmt"
	"sync"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// DefaultKeep is how many checkpoint files a manager retains.
const DefaultKeep = 2

// IndexDeclarer is implemented by state databases that can report their
// declared secondary indexes (statedb.IndexedStore); the manager persists
// the definitions so a recovered peer rebuilds the same indexes.
type IndexDeclarer interface {
	IndexDefs() []richquery.IndexDef
}

// Manager turns the committer's checkpoint captures into durable checkpoint
// files. It runs on the commit pipeline's persistence goroutine (behind the
// watermark), where the history database and block file are guaranteed to
// agree with the captured state's height — the consistency contract the
// whole recovery path rests on.
type Manager struct {
	dir     string
	keep    int
	state   statedb.StateDB
	history *historydb.DB
	blocks  *blockstore.FileStore

	mu         sync.Mutex
	lastHeight uint64
	lastErr    error
}

// NewManager creates a checkpoint manager for one channel of a peer data
// directory, writing under CheckpointDir(dataDir, channel).
func NewManager(dataDir, channel string, keep int, state statedb.StateDB, history *historydb.DB, blocks *blockstore.FileStore) *Manager {
	if keep < 1 {
		keep = DefaultKeep
	}
	return &Manager{
		dir:     CheckpointDir(dataDir, channel),
		keep:    keep,
		state:   state,
		history: history,
		blocks:  blocks,
	}
}

// OnCheckpoint is the committer.Config.OnCheckpoint hook: it freezes the
// capture into a full checkpoint (adding history and index definitions),
// fsyncs the block file so the checkpoint never refers past durable blocks,
// and publishes the file atomically. The capture arrives as a copy-on-write
// snapshot pinned at the block boundary; materializing it into the codec's
// map form happens here, on the persistence goroutine, off the apply path.
// Failures are recorded (Err) rather than propagated — a failed checkpoint
// degrades recovery time, not correctness, since the previous checkpoint
// set stays intact.
func (m *Manager) OnCheckpoint(c committer.Capture) {
	state := c.State.Materialize()
	c.State.Release()
	ck := &Checkpoint{
		Height:       c.Height,
		StateHeight:  c.StateHeight,
		Fingerprint:  committer.SnapshotFingerprint(state),
		State:        state,
		History:      m.history.Snapshot(),
		IndexEntries: c.IndexEntries,
	}
	if decl, ok := m.state.(IndexDeclarer); ok {
		ck.Indexes = decl.IndexDefs()
	}
	m.persist(ck)
}

// Final takes a checkpoint of the current quiesced state — the peer calls
// it on clean shutdown, after the commit pipeline has drained, so the next
// open restores instantly with an empty replay tail.
func (m *Manager) Final() error {
	h := m.blocks.Height()
	if h == 0 || h == m.LastHeight() {
		return m.Err()
	}
	ck := &Checkpoint{
		Height:      h,
		StateHeight: m.state.Height(),
		State:       m.state.Export(),
		History:     m.history.Snapshot(),
	}
	ck.Fingerprint = committer.SnapshotFingerprint(ck.State)
	if decl, ok := m.state.(IndexDeclarer); ok {
		ck.Indexes = decl.IndexDefs()
	}
	if ixs, ok := m.state.(interface {
		IndexEntries() map[string][]richquery.IndexEntry
	}); ok {
		ck.IndexEntries = ixs.IndexEntries()
	}
	m.persist(ck)
	return m.Err()
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
	Prune(m.dir, m.keep)
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
