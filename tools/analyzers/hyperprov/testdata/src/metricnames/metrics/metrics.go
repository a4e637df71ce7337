// Package metrics is a fixture stand-in for the real registry; the
// analyzer exempts the declaring package (it handles names as values).
package metrics

// Registry is the fixture metric registry.
type Registry struct{}

// Counter returns a counter handle for name.
func (r *Registry) Counter(name string) *Counter { return &Counter{name: name} }

// Gauge returns a gauge handle for name.
func (r *Registry) Gauge(name string) *Gauge { return &Gauge{name: name} }

// GaugeFunc registers a sampled gauge under name.
func (r *Registry) GaugeFunc(name string, fn func() int64) {}

// Histogram returns a histogram handle for name.
func (r *Registry) Histogram(name string) *Histogram { return &Histogram{name: name} }

// Counter counts.
type Counter struct{ name string }

// Inc bumps the counter.
func (c *Counter) Inc() {}

// Gauge holds a level.
type Gauge struct{ name string }

// Set sets the level.
func (g *Gauge) Set(v float64) {}

// Histogram accumulates observations.
type Histogram struct{ name string }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {}

// internal lookup: the registry itself may treat names dynamically.
func (r *Registry) lookup(name string) *Counter {
	return r.Counter(name + "_total")
}
