package statedb

import (
	"sync"

	"github.com/hyperprov/hyperprov/internal/metrics"
)

// storeMetrics is the store's optional instrumentation: per-operation
// latency histograms, a lock-contention counter and what rich queries cost.
// It is nil (zero cost on the hot paths) until SetMetrics attaches a
// registry.
type storeMetrics struct {
	get, scan, apply     *metrics.Histogram
	contention           *metrics.Counter
	docsRead, exactRange *metrics.Counter
}

// SetMetrics attaches per-operation state latency histograms (state_get,
// state_scan, state_apply), the lock-contention counter
// (state_lock_contention) and the two rich-query counters to reg:
// statedb_query_docs_decoded, the stored values the queries read to
// re-check their selector, and statedb_queries_exact_range, the queries an
// index range answered without reading any. Pass nil to detach.
func (s *Store) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		s.metrics.Store(nil)
		return
	}
	s.metrics.Store(&storeMetrics{
		get:        reg.Histogram(metrics.StateGet),
		scan:       reg.Histogram(metrics.StateScan),
		apply:      reg.Histogram(metrics.StateApply),
		contention: reg.Counter(metrics.StateLockContention),
		docsRead:   reg.Counter(metrics.StateQueryDocsDecoded),
		exactRange: reg.Counter(metrics.StateQueriesExactRange),
	})
}

// lock takes the store's write lock, counting the acquisition as contended
// when it could not be taken immediately. A nil m just locks.
func (m *storeMetrics) lock(mu *sync.RWMutex) {
	if m == nil {
		mu.Lock()
		return
	}
	if mu.TryLock() {
		return
	}
	m.contention.Inc()
	mu.Lock()
}

// rlock is lock for the read side.
func (m *storeMetrics) rlock(mu *sync.RWMutex) {
	if m == nil {
		mu.RLock()
		return
	}
	if mu.TryRLock() {
		return
	}
	m.contention.Inc()
	mu.RLock()
}
