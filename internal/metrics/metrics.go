// Package metrics provides the operational telemetry exposed by peers, the
// ordering service, and the transport layer — the numbers an operator of
// the paper's edge deployment scrapes from the admin endpoint's /metrics
// view. Three instrument kinds cover the system:
//
//   - Counter: a monotonic event count (transactions validated, blocks
//     committed, transport frames sent, gossip rounds).
//   - Gauge: an instantaneous level that moves both ways (endorsement
//     requests currently in flight).
//   - Histogram: a fixed-bucket log-scale (HDR-style) latency distribution
//     with lock-free atomic buckets, reporting p50/p90/p99/p999 at a
//     bounded relative error of QuantileRelativeError, alongside the exact
//     count, sum, min, max, and mean.
//
// All instruments are safe for concurrent use. A Registry names a set of
// instruments, snapshots them as plain maps, renders a sorted text dump
// (Format), and writes Prometheus text exposition format (WritePrometheus).
//
// Well-known instrument names are declared as constants below: commit
// counters (BlocksCommitted, TxValidated, TxInvalidated), endorsement
// (EndorsementsServed, EndorsementsFailed, EndorseInflight,
// GatewayEndorseWidened), ordering
// (BatchesCut, EnvelopesOrdered, EnvelopesRejected), gossip (GossipRounds,
// GossipBlocksPulled, GossipPushDeliveries, GossipPullDeliveries,
// GossipConvergenceLag), transport (TransportFramesSent/Received,
// TransportBytesSent/Received, TransportReconnects,
// TransportHandshakeFailures, TransportRPC), the commit-stage histograms
// (CommitStage*), and the state-store instruments (State*).
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (negative deltas are ignored; counters are monotonic).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level that can move in both directions — the
// endorsement queue depth, for instance.
type Gauge struct {
	v atomic.Int64
}

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds delta (either sign).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the current level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket layout: log-linear, HDR-style. Values below 2^subBits
// nanoseconds get exact unit buckets; above that, each power of two is
// split into 2^subBits linear sub-buckets, so any recorded value falls in a
// bucket whose width is at most value/2^subBits — the quantile error bound.
const (
	subBits  = 5
	nSub     = 1 << subBits // sub-buckets per power of two
	nBuckets = (64-subBits+1)*nSub + nSub
)

// QuantileRelativeError is the worst-case relative error of the quantiles a
// Histogram reports: a bucket spanning [v, v+v/32) can misreport a value by
// at most 1/32 of its magnitude.
const QuantileRelativeError = 1.0 / nSub

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < nSub {
		return int(v)
	}
	e := uint(bits.Len64(v) - 1) // position of the leading bit, >= subBits
	sub := (v >> (e - subBits)) - nSub
	return int(e-subBits+1)*nSub + int(sub)
}

// bucketMax returns the largest value bucket i can hold — the value the
// quantile walk reports for samples landing in it.
func bucketMax(i int) int64 {
	if i < nSub {
		return int64(i)
	}
	g := uint(i / nSub) // e - subBits + 1
	sub := uint64(i % nSub)
	return int64((nSub+sub+1)<<(g-1)) - 1
}

// Histogram records duration observations lock-free and reports summary
// statistics with quantiles. Count, sum, min, and max are tracked exactly
// with atomics; quantiles come from the log-scale buckets and carry at most
// QuantileRelativeError. The commit pipeline uses one histogram per stage,
// so an operator can see where commit latency accumulates — and now at
// which percentile.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64 // nanoseconds
	// minPlus1 stores min+1 so the zero value means "no samples yet" and a
	// genuine 0ns minimum is still representable.
	minPlus1 atomic.Int64
	max      atomic.Int64
	buckets  [nBuckets]atomic.Int64
}

// Observe records one duration sample. Negative durations are ignored.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		return
	}
	v := int64(d)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.minPlus1.Load()
		if cur != 0 && cur <= v+1 {
			break
		}
		if h.minPlus1.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= v {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(uint64(v))].Add(1)
}

// HistogramSummary is a snapshot of one histogram's statistics. Count, Sum,
// Min, Max, and Mean are exact; the quantiles are bucket-derived and
// overestimate by at most QuantileRelativeError.
type HistogramSummary struct {
	Count int64
	Sum   time.Duration
	Min   time.Duration
	Max   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
}

// Summary returns the histogram's current statistics. Under concurrent
// Observe calls the snapshot is internally consistent to within the
// in-flight observations.
func (h *Histogram) Summary() HistogramSummary {
	s := HistogramSummary{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	if mp := h.minPlus1.Load(); mp > 0 {
		s.Min = time.Duration(mp - 1)
	}
	if s.Count > 0 {
		s.Mean = s.Sum / time.Duration(s.Count)
	}
	counts, total := h.snapshotBuckets()
	if total > 0 {
		s.P50 = quantile(counts, total, 0.50)
		s.P90 = quantile(counts, total, 0.90)
		s.P99 = quantile(counts, total, 0.99)
		s.P999 = quantile(counts, total, 0.999)
	}
	return s
}

// snapshotBuckets loads every bucket once and returns the copy plus its
// total (the total may trail Count by in-flight observations; quantile
// ranks are computed over the copy so they stay self-consistent).
func (h *Histogram) snapshotBuckets() ([nBuckets]int64, int64) {
	var counts [nBuckets]int64
	var total int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	return counts, total
}

// quantile walks the bucket snapshot to the q-th quantile (nearest rank)
// and reports the bucket's upper bound.
func quantile(counts [nBuckets]int64, total int64, q float64) time.Duration {
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range counts {
		seen += counts[i]
		if seen >= rank {
			return time.Duration(bucketMax(i))
		}
	}
	return time.Duration(bucketMax(nBuckets - 1))
}

// Registry is a named set of counters, gauges, and histograms.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose level is read from fn each time the
// registry is snapshotted or scraped — for state that already lives behind
// its owner's lock (a cache's size and hit counters) and would otherwise be
// double-booked on the hot path. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns the histogram with the given name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// HistogramSummaries returns the current summary of every histogram.
func (r *Registry) HistogramSummaries() map[string]HistogramSummary {
	r.mu.Lock()
	hs := make([]*Histogram, 0, len(r.histograms))
	names := make([]string, 0, len(r.histograms))
	for name, h := range r.histograms {
		names = append(names, name)
		hs = append(hs, h)
	}
	r.mu.Unlock()
	out := make(map[string]HistogramSummary, len(hs))
	for i, h := range hs {
		out[names[i]] = h.Summary()
	}
	return out
}

// Snapshot returns the current value of every counter.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// GaugeSnapshot returns the current level of every gauge, sampled ones
// (GaugeFunc) included.
func (r *Registry) GaugeSnapshot() map[string]int64 {
	r.mu.Lock()
	out := make(map[string]int64, len(r.gauges)+len(r.gaugeFuncs))
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for name, fn := range r.gaugeFuncs {
		funcs[name] = fn
	}
	r.mu.Unlock()
	// Sampled outside the registry lock: fn takes its owner's lock.
	for name, fn := range funcs {
		out[name] = fn()
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Format renders the registry as sorted "name value" lines: counters and
// gauges first, then per-histogram count, sum, mean, min, max, and the
// quantiles — everything the histogram tracks, so the text dump and the
// Prometheus exposition agree.
func (r *Registry) Format() string {
	snap := r.Snapshot()
	var sb strings.Builder
	for _, name := range sortedKeys(snap) {
		fmt.Fprintf(&sb, "%s %d\n", name, snap[name])
	}
	gauges := r.GaugeSnapshot()
	for _, name := range sortedKeys(gauges) {
		fmt.Fprintf(&sb, "%s %d\n", name, gauges[name])
	}
	sums := r.HistogramSummaries()
	for _, name := range sortedKeys(sums) {
		s := sums[name]
		fmt.Fprintf(&sb, "%s_count %d\n%s_sum_ns %d\n%s_mean_ns %d\n",
			name, s.Count, name, s.Sum.Nanoseconds(), name, s.Mean.Nanoseconds())
		fmt.Fprintf(&sb, "%s_min_ns %d\n%s_max_ns %d\n",
			name, s.Min.Nanoseconds(), name, s.Max.Nanoseconds())
		fmt.Fprintf(&sb, "%s_p50_ns %d\n%s_p90_ns %d\n%s_p99_ns %d\n%s_p999_ns %d\n",
			name, s.P50.Nanoseconds(), name, s.P90.Nanoseconds(),
			name, s.P99.Nanoseconds(), name, s.P999.Nanoseconds())
	}
	return sb.String()
}

// sanitizeName maps a metric name onto the Prometheus name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*, replacing every other rune with '_'.
func sanitizeName(name string) string {
	var sb strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "_"
	}
	return sb.String()
}

// WritePrometheus renders the registry in Prometheus text exposition
// format. Every metric name is prefixed with prefix (use it to merge
// several registries — peer, orderer, transport — into one scrape without
// collisions) and sanitized to the exposition charset. Histograms are
// written as cumulative le-bucketed distributions in seconds, ascending,
// with only non-empty buckets materialized plus the mandatory +Inf.
func (r *Registry) WritePrometheus(w io.Writer, prefix string) error {
	return r.WritePrometheusLabeled(w, prefix, nil)
}

// WritePrometheusLabeled is WritePrometheus with a constant label set
// attached to every sample — how a multi-channel host exposes one registry
// per channel on a single scrape (label {channel="..."}) without renaming
// metrics. Label names are sanitized to the metric charset, values are
// quoted; a nil or empty map degrades to the unlabeled form.
func (r *Registry) WritePrometheusLabeled(w io.Writer, prefix string, labels map[string]string) error {
	lbl := formatLabels(labels)
	snap := r.Snapshot()
	for _, name := range sortedKeys(snap) {
		n := sanitizeName(prefix + name)
		if _, err := fmt.Fprintf(w, "# HELP %s Total count of %s events.\n# TYPE %s counter\n%s%s %d\n",
			n, name, n, n, lbl.bare, snap[name]); err != nil {
			return err
		}
	}
	gauges := r.GaugeSnapshot()
	for _, name := range sortedKeys(gauges) {
		n := sanitizeName(prefix + name)
		if _, err := fmt.Fprintf(w, "# HELP %s Current level of %s.\n# TYPE %s gauge\n%s%s %d\n",
			n, name, n, n, lbl.bare, gauges[name]); err != nil {
			return err
		}
	}
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hists[name] = h
	}
	r.mu.Unlock()
	for _, name := range sortedKeys(hists) {
		if err := hists[name].writePrometheus(w, sanitizeName(prefix+name), name, lbl); err != nil {
			return err
		}
	}
	return nil
}

// labelSet pre-renders a constant label set in the two forms the exposition
// needs: appended to a bare metric name (`{k="v"}`), and merged before an
// le label inside an existing brace pair (`k="v",`).
type labelSet struct {
	bare  string
	inner string
}

// formatLabels renders labels sorted by name for stable scrapes.
func formatLabels(labels map[string]string) labelSet {
	if len(labels) == 0 {
		return labelSet{}
	}
	parts := make([]string, 0, len(labels))
	for _, k := range sortedKeys(labels) {
		parts = append(parts, fmt.Sprintf("%s=%q", sanitizeName(k), labels[k]))
	}
	joined := strings.Join(parts, ",")
	return labelSet{bare: "{" + joined + "}", inner: joined + ","}
}

// writePrometheus renders one histogram as a Prometheus histogram family.
func (h *Histogram) writePrometheus(w io.Writer, name, rawName string, lbl labelSet) error {
	counts, total := h.snapshotBuckets()
	if _, err := fmt.Fprintf(w, "# HELP %s Latency distribution of %s in seconds.\n# TYPE %s histogram\n",
		name, rawName, name); err != nil {
		return err
	}
	var cum int64
	for i := range counts {
		if counts[i] == 0 {
			continue
		}
		cum += counts[i]
		le := float64(bucketMax(i)+1) / 1e9
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, lbl.inner, formatFloat(le), cum); err != nil {
			return err
		}
	}
	sum := float64(h.sum.Load()) / 1e9
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %s\n%s_count%s %d\n",
		name, lbl.inner, total, name, lbl.bare, formatFloat(sum), name, lbl.bare, total); err != nil {
		return err
	}
	return nil
}

// formatFloat renders a float the way Prometheus exposition expects
// (shortest representation, no exponent for typical latencies).
func formatFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// Well-known metric names used across the system.
const (
	EndorsementsServed = "endorsements_served"
	EndorsementsFailed = "endorsements_failed"
	BlocksCommitted    = "blocks_committed"
	TxValidated        = "tx_validated"
	TxInvalidated      = "tx_invalidated"
	QueriesServed      = "queries_served"
	BatchesCut         = "batches_cut"
	EnvelopesOrdered   = "envelopes_ordered"
	EnvelopesRejected  = "envelopes_rejected"
	GossipBlocksPulled = "gossip_blocks_pulled"
	// GatewayEndorseWidened counts Submits whose endorsement asked beyond the
	// commit peer: it errored, its signature was skipped, or the policy needs
	// more than one org. Zero on a healthy single-org channel.
	GatewayEndorseWidened = "gateway_endorse_widened"
	// StateLockContention counts the reads and applies that waited on the
	// state store's lock.
	StateLockContention = "state_lock_contention"
	// StateQueryDocsDecoded counts the JSON documents rich queries decoded
	// to check a selector; StateQueriesExactRange counts the rich queries
	// an index range answered without decoding any. A slow query is one
	// that moved the first and not the second.
	StateQueryDocsDecoded  = "statedb_query_docs_decoded"
	StateQueriesExactRange = "statedb_queries_exact_range"

	// Gossip protocol coverage: anti-entropy rounds run, blocks delivered
	// by pull (a member fetching a neighbour's tail) vs push (a block
	// delivered to a remote peer's transport server).
	GossipRounds         = "gossip_rounds"
	GossipPullDeliveries = "gossip_pull_deliveries"
	GossipPushDeliveries = "gossip_push_deliveries"

	// Transport coverage: framed messages and bytes in each direction,
	// successful redials of a previously-established connection, and hello
	// handshakes that failed.
	TransportFramesSent        = "transport_frames_sent"
	TransportFramesReceived    = "transport_frames_received"
	TransportBytesSent         = "transport_bytes_sent"
	TransportBytesReceived     = "transport_bytes_received"
	TransportReconnects        = "transport_reconnects"
	TransportHandshakeFailures = "transport_handshake_failures"
)

// Well-known gauge names.
const (
	// IdentityCache* and VerifyCache* sample the MSP's two caches (GaugeFunc):
	// the table of resolved identities and the signature-verification cache.
	// Hits and misses are running totals; hits/(hits+misses) near 1 means
	// identity resolution, respectively signature checking, is warm on this
	// peer. Entries is the current size, bounded by each cache's capacity.
	IdentityCacheHits    = "identity_cache_hits"
	IdentityCacheMisses  = "identity_cache_misses"
	IdentityCacheEntries = "identity_cache_entries"
	VerifyCacheHits      = "verify_cache_hits"
	VerifyCacheMisses    = "verify_cache_misses"
	VerifyCacheEntries   = "verify_cache_entries"
	// IdentityECDSA* sample the process-wide counts of ECDSA operations
	// actually executed (identity.ECDSAOps): cache hits are not in them, so
	// their growth per transaction is the signature budget really spent.
	IdentityECDSASigns    = "identity_ecdsa_signs"
	IdentityECDSAVerifies = "identity_ecdsa_verifies"

	// EndorseInflight is the number of endorsement requests currently being
	// simulated — the endorsement queue depth.
	EndorseInflight = "endorse_inflight"
	// EndorsePeerLatency is the prefix of the gateway's per-endorser latency
	// gauges (endorse_peer_latency_<endorser>): an EWMA of that endorser's
	// proposal round-trip in nanoseconds. The family is bounded by the
	// channel's endorser set, and holds only endorsers the gateway asked. A
	// persistently high reading identifies the straggler the quorum
	// early-return is routing around.
	EndorsePeerLatency = "endorse_peer_latency"
)

// Well-known histogram names: per-block latency of each commit-pipeline
// stage, per-operation latency of the state store, per-RPC latency
// of the peer transport, and the gossip convergence lag.
const (
	CommitStagePreval  = "commit_stage_preval"
	CommitStageMVCC    = "commit_stage_mvcc"
	CommitStagePersist = "commit_stage_persist"

	StateGet   = "state_get"
	StateScan  = "state_scan"
	StateApply = "state_apply"

	// TransportRPC is the client-observed round-trip latency of one framed
	// request/response exchange.
	TransportRPC = "transport_rpc"
	// GossipConvergenceLag records, at each successful pull, how many
	// blocks the puller was behind its source. The samples are block
	// counts stored in the histogram's nanosecond slots (1 block == 1ns),
	// not durations — read the quantiles as "blocks behind".
	GossipConvergenceLag = "gossip_convergence_lag"
)
