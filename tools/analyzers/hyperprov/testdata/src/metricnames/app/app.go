// Package app exercises the metricnames analyzer: family names must be
// compile-time constant snake_case strings.
package app

import (
	"fmt"

	"metricnames/metrics"
)

const txCommitted = "tx_committed"

func good(reg *metrics.Registry) {
	reg.Counter(txCommitted).Inc()
	reg.Gauge("queue_depth").Set(1)
	reg.Histogram(txCommitted + "_latency").Observe(0.5)
	reg.GaugeFunc("cache_entries", func() int64 { return 0 })
}

func bad(reg *metrics.Registry, op string) {
	reg.Counter("rpc_" + op).Inc()                        // want "metric family name passed to Registry.Counter is not a compile-time constant"
	reg.Histogram(fmt.Sprintf("rpc_%s", op)).Observe(1)   // want "metric family name passed to Registry.Histogram is not a compile-time constant"
	reg.Gauge("queueDepth").Set(2)                        // want `metric family name "queueDepth" is not snake_case`
	reg.Counter("2fast").Inc()                            // want `metric family name "2fast" is not snake_case`
	reg.GaugeFunc("cache_"+op, func() int64 { return 0 }) // want "metric family name passed to Registry.GaugeFunc is not a compile-time constant"
}

func sanctioned(reg *metrics.Registry, name string) {
	//hyperprov:allow metricnames fixture forwards a constant name
	reg.Counter(name).Inc()
}
