package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer's public API. Spans
// of one operation share Op; Parent is the ID of the enclosing span (0 for
// the operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// spanLog collects one client goroutine's spans in memory. Each client owns
// its log, so recording takes no lock; a nil log records nothing, which is
// how the untraced runs pay nothing for tracing.
type spanLog struct {
	epoch  time.Time
	client int
	spans  []span
	// opID and root identify the operation currently being recorded.
	opID, root int
}

func newSpanLog(epoch time.Time, client int) *spanLog {
	return &spanLog{epoch: epoch, client: client}
}

// nextID interleaves the clients' ID spaces so IDs are unique across logs.
func (l *spanLog) nextID() int { return len(l.spans)*numClients + l.client + 1 }

// beginOp opens the root span of operation op.
func (l *spanLog) beginOp(name string, op int) {
	if l == nil {
		return
	}
	l.opID = op
	l.root = l.nextID()
	l.spans = append(l.spans, span{ID: l.root, Op: op, Name: name, Start: time.Since(l.epoch).Nanoseconds()})
}

// endOp closes the current operation's root span.
func (l *spanLog) endOp() {
	if l == nil {
		return
	}
	for i := len(l.spans) - 1; i >= 0; i-- {
		if l.spans[i].ID == l.root {
			l.spans[i].End = time.Since(l.epoch).Nanoseconds()
			return
		}
	}
}

// call times f as a child of the current operation.
func (l *spanLog) call(name string, f func() error) error {
	if l == nil {
		return f()
	}
	id := l.nextID()
	start := time.Since(l.epoch).Nanoseconds()
	err := f()
	l.spans = append(l.spans, span{ID: id, Parent: l.root, Op: l.opID, Name: name,
		Start: start, End: time.Since(l.epoch).Nanoseconds()})
	return err
}

// spanSummary is the per-name digest printed after a traced run.
type spanSummary struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	P10Ms float64 `json:"p10Ms"`
	P50Ms float64 `json:"p50Ms"`
	// SelfP50Ms is the median of the span's duration minus the part its
	// children cover — non-zero only for operation roots.
	SelfP50Ms float64 `json:"selfP50Ms"`
}

func summarizeSpans(logs []*spanLog) []spanSummary {
	childTime := map[int]int64{}
	for _, l := range logs {
		for _, s := range l.spans {
			if s.Parent != 0 {
				childTime[s.Parent] += s.End - s.Start
			}
		}
	}
	dur := map[string][]float64{}
	self := map[string][]float64{}
	for _, l := range logs {
		for _, s := range l.spans {
			d := float64(s.End-s.Start) / 1e6
			dur[s.Name] = append(dur[s.Name], d)
			self[s.Name] = append(self[s.Name], d-float64(childTime[s.ID])/1e6)
		}
	}
	out := make([]spanSummary, 0, len(dur))
	for name, ds := range dur {
		out = append(out, spanSummary{Name: name, Count: len(ds),
			P10Ms: percentile(ds, 0.10), P50Ms: percentile(ds, 0.50), SelfP50Ms: median(self[name])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans dumps every recorded span as one JSON document.
func writeSpans(path, workload string, summary []spanSummary, logs []*spanLog) error {
	var all []span
	for _, l := range logs {
		all = append(all, l.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	raw, err := json.Marshal(struct {
		Workload string        `json:"workload"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, summary, all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
