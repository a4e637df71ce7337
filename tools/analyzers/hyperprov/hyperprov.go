// Package hyperprov holds the repo's domain-specific analyzers. Each one
// machine-checks an invariant that an earlier PR established and that
// review alone kept re-litigating:
//
//	atomicwrite   durable files are published temp+fsync+rename+dir-fsync (PR 3)
//	clientseam    internal/core imports none of the network's own packages: the
//	              client library depends on the core.Gateway interface (PR 26)
//	errcodes      cross-process errors are classified structurally, never by
//	              error-string matching (PR 4's RemoteStore bug class)
//	locksafe      striped locks are never held across blocking operations (PR 5/7)
//	metricnames   metric families are compile-time constant snake_case names (PR 6/8)
//	nojsonwire    the packages that own a wire never import encoding/json or
//	              encoding/base64: frame bodies are internal/codec encodings (PR 17)
//	onesocket     only internal/network (and internal/admin, HTTP) opens sockets:
//	              TCP services stand on network.Listen / network.Dial (PR 22)
//	walltime      the commit/MVCC decision path stays deterministic: wall-clock
//	              reads only through the metrics seam (PR 7)
//
// Suppression: a `//hyperprov:allow <name> <reason>` comment on the flagged
// line (or alone on the line above) silences one line.
package hyperprov

import "github.com/hyperprov/hyperprov/tools/analyzers/analysis"

// All returns every hyperprov analyzer, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		AtomicWrite,
		ClientSeam,
		ErrCodes,
		LockSafe,
		MetricNames,
		NoJSONWire,
		OneSocket,
		WallTime,
	}
}
