package statedb

import (
	"sync"

	"github.com/hyperprov/hyperprov/internal/metrics"
)

// storeMetrics is the store's optional instrumentation: per-operation
// latency histograms and a lock-contention counter. It is nil (zero cost
// on the hot paths) until SetMetrics attaches a registry.
type storeMetrics struct {
	get, scan, apply *metrics.Histogram
	contention       *metrics.Counter
}

// SetMetrics attaches per-operation state latency histograms (state_get,
// state_scan, state_apply) and the lock-contention counter
// (state_lock_contention) to reg. Pass nil to detach.
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
