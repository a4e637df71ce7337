package committer

import (
	"sync"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// Serial is the single-goroutine reference committer: every stage of every
// block runs to completion on the submitter's goroutine before Submit
// returns. It is the baseline the commit benchmark compares the pipeline
// against, and the oracle the equivalence test checks the pipeline with.
type Serial struct {
	cfg Config

	mu       sync.Mutex
	next     uint64
	lastHash []byte
}

var _ Committer = (*Serial)(nil)

// NewSerial creates a serial committer expecting block number
// cfg.Blocks.Height() next.
func NewSerial(cfg Config) *Serial {
	return &Serial{cfg: cfg, next: cfg.Blocks.Height(), lastHash: cfg.Blocks.LastHash()}
}

// Submit validates and commits the block synchronously. Duplicate,
// out-of-order, and integrity-failing blocks are dropped.
func (s *Serial) Submit(ordered *blockstore.Block) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !admissible(ordered, s.next, s.lastHash) {
		return false
	}
	s.next++
	s.lastHash = ordered.Header.Hash()
	if s.cfg.OnAccepted != nil {
		s.cfg.OnAccepted(ordered)
	}
	t := newTask(ordered)

	start := stageStart()
	t.preval = prevalidate(s.cfg.Verifier, t.b, 1)
	observe(s.cfg.Metrics, metrics.CommitStagePreval, start)
	s.cfg.Tracer.AddBatch(t.txIDs(), trace.StageCommitPreval, s.cfg.Name, start, stageElapsed(start))

	start = stageStart()
	mvccFinalize(s.cfg.State, t)
	err := applyState(s.cfg.State, t)
	if err == nil {
		captureState(s.cfg, t)
	}
	observe(s.cfg.Metrics, metrics.CommitStageMVCC, start)
	s.cfg.Tracer.AddBatch(t.txIDs(), trace.StageCommitMVCC, s.cfg.Name, start, stageElapsed(start))
	if err != nil {
		// Replayed block against restored state: already reflected, drop
		// (the height is consumed, exactly as the pipeline does).
		return false
	}

	start = stageStart()
	persist(s.cfg, t, start)
	observe(s.cfg.Metrics, metrics.CommitStagePersist, start)
	if t.capture != nil {
		s.cfg.OnCheckpoint(*t.capture)
	}
	return true
}

// Sync is a no-op: Submit persists before returning.
func (s *Serial) Sync() {}

// Close is a no-op; Serial holds no goroutines.
func (s *Serial) Close() {}
