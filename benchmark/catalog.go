package main

import "encoding/json"

// metricDef names one reported metric. moves records, for a per-layer
// metric, the end-to-end metric and workload it is expected to move — the
// layer→end-to-end table of README.md is generated from it.
type metricDef struct {
	name, unit string
	moves      string
	// higher marks the few metrics where more is better.
	higher bool
	// bound, for an end-to-end metric, is the share of the parent's median
	// by which it may worsen before a change is rejected. NOISE.md holds
	// the measured spread behind each.
	bound float64
}

// endToEndMetrics are the gated metrics, reported by every untraced run on
// every workload. Lower is better for all; bounds live in BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "op_p10_ms", unit: "ms", bound: 0.10},
	{name: "cpu_ms_per_op", unit: "ms", bound: 0.10},
	{name: "alloc_kib_per_op", unit: "KiB", bound: 0.03},
	{name: "live_kib_per_op", unit: "KiB", bound: 0.05},
}

// perLayerMetrics are reported by every traced run on every workload, from
// the paired traced/untraced rounds, the workload's own ledger, and the
// layer probes run against that workload's end state.
var perLayerMetrics = []metricDef{
	// core: client operators, probed single-goroutine on the workload's network.
	{name: "core.post_p10_ms", unit: "ms", moves: "op_p10_ms on post_e2e, lineage_mixed"},
	{name: "core.storedata_p10_ms", unit: "ms", moves: "op_p10_ms on store_payload"},
	{name: "core.getdata_p10_ms", unit: "ms", moves: "op_p10_ms on store_payload"},
	{name: "core.reads_p10_ms", unit: "ms", moves: "op_p10_ms on lineage_mixed"},
	{name: "core.richquery_p10_ms", unit: "ms", moves: "op_p10_ms on lineage_mixed"},
	{name: "core.op_p50_ms", unit: "ms", moves: "diagnostic, never gated"},
	{name: "core.op_p99_ms", unit: "ms", moves: "diagnostic, never gated"},
	{name: "core.ops_per_s", unit: "1/s", moves: "diagnostic, never gated", higher: true},
	// fabric
	{name: "fabric.endorsements_per_tx", unit: "count", moves: "cpu_ms_per_op on post_e2e"},
	// identity
	{name: "identity.sign_us", unit: "us", moves: "cpu_ms_per_op, op_p10_ms on post_e2e"},
	{name: "identity.verify_us", unit: "us", moves: "cpu_ms_per_op, op_p10_ms on catchup"},
	{name: "identity.deserialize_us", unit: "us", moves: "cpu_ms_per_op, op_p10_ms on post_e2e, catchup"},
	{name: "identity.verifycache_hit_ratio", unit: "ratio", moves: "cpu_ms_per_op on post_e2e (warm) vs catchup (cold)", higher: true},
	// endorser / peer / shim / chaincode
	{name: "peer.endorse_us", unit: "us", moves: "op_p10_ms, cpu_ms_per_op on post_e2e"},
	{name: "endorser.check_endorsements_us", unit: "us", moves: "op_p10_ms on post_e2e"},
	{name: "peer.query_get_us", unit: "us", moves: "op_p10_ms on lineage_mixed"},
	{name: "provenance.history17_us", unit: "us", moves: "op_p10_ms, alloc_kib_per_op on lineage_mixed"},
	{name: "provenance.lineage32_us", unit: "us", moves: "op_p10_ms, alloc_kib_per_op on lineage_mixed"},
	{name: "provenance.descendants_us", unit: "us", moves: "op_p10_ms, alloc_kib_per_op on lineage_mixed"},
	{name: "richquery.bytype_us", unit: "us", moves: "op_p10_ms, alloc_kib_per_op on lineage_mixed"},
	// orderer
	{name: "orderer.submit_to_block_us", unit: "us", moves: "op_p10_ms on post_e2e"},
	{name: "orderer.txs_per_block", unit: "count", moves: "must be exactly 1 (10 on catchup): no op waited on BatchTimeout", higher: true},
	// committer
	{name: "committer.prevalidate_us_per_tx", unit: "us", moves: "cpu_ms_per_op, op_p10_ms on catchup"},
	{name: "committer.serial_us_per_tx", unit: "us", moves: "cpu_ms_per_op on catchup"},
	{name: "committer.pipeline_us_per_tx", unit: "us", moves: "op_p10_ms, cpu_ms_per_op on catchup (cold verification cache)"},
	{name: "committer.pipeline_warm_us_per_tx", unit: "us", moves: "cpu_ms_per_op on post_e2e (gateway-warmed verification cache)"},
	{name: "committer.invalid_tx_ratio", unit: "ratio", moves: "wasted work; expected 0, explains failed ops"},
	// rwset / codec / blockstore
	{name: "rwset.unmarshal_ns", unit: "ns", moves: "op_p10_ms on catchup"},
	{name: "blockstore.marshal_us_per_block", unit: "us", moves: "op_p10_ms, alloc_kib_per_op on catchup"},
	{name: "blockstore.unmarshal_us_per_block", unit: "us", moves: "op_p10_ms, alloc_kib_per_op on catchup"},
	{name: "blockstore.bytes_per_tx", unit: "B", moves: "live_kib_per_op everywhere (blocks are resident)"},
	{name: "blockstore.append_us_per_block", unit: "us", moves: "durable path; no gated workload yet"},
	{name: "blockstore.open_us_per_block", unit: "us", moves: "durable path; no gated workload yet"},
	// statedb / historydb
	{name: "statedb.apply_us_per_write", unit: "us", moves: "commit share of op_p10_ms on catchup"},
	{name: "statedb.get_ns", unit: "ns", moves: "read share of op_p10_ms on lineage_mixed"},
	{name: "historydb.record_us_per_write", unit: "us", moves: "commit share of op_p10_ms on catchup"},
	{name: "historydb.history17_us", unit: "us", moves: "read share of op_p10_ms on lineage_mixed"},
	// transport
	{name: "transport.rtt_us", unit: "us", moves: "op_p10_ms on catchup"},
	{name: "transport.deliver_us_per_block", unit: "us", moves: "op_p10_ms, cpu_ms_per_op on catchup"},
	{name: "transport.pull_us_per_block", unit: "us", moves: "op_p10_ms, alloc_kib_per_op on catchup"},
	{name: "transport.wire_bytes_per_block", unit: "B", moves: "alloc_kib_per_op on catchup"},
	{name: "transport.wire_inflation", unit: "ratio", moves: "alloc_kib_per_op on catchup (base64-in-JSON: about 1.33)"},
	// offchain
	{name: "offchain.checksum_ms", unit: "ms", moves: "op_p10_ms, cpu_ms_per_op on store_payload"},
	{name: "offchain.remote_put_ms", unit: "ms", moves: "op_p10_ms, cpu_ms_per_op, alloc_kib_per_op on store_payload"},
	{name: "offchain.remote_get_ms", unit: "ms", moves: "op_p10_ms, cpu_ms_per_op, alloc_kib_per_op on store_payload"},
	{name: "offchain.dir_put_ms", unit: "ms", moves: "durable store; reported only (fsync on the sandbox disk)"},
	{name: "offchain.dir_get_ms", unit: "ms", moves: "durable store; reported only"},
	// recovery
	{name: "recovery.durable_commit_us_per_tx", unit: "us", moves: "durable path; reported only"},
	{name: "recovery.durable_alloc_kib_per_tx", unit: "KiB", moves: "durable path; reported only"},
	{name: "recovery.reopen_ms", unit: "ms", moves: "durable path; reported only"},
	{name: "recovery.replayed_blocks", unit: "count", moves: "durable path; reported only"},
	// process
	{name: "proc.mallocs_per_op", unit: "count", moves: "explains alloc_kib_per_op"},
	{name: "proc.gc_cpu_share", unit: "ratio", moves: "explains cpu_ms_per_op"},
	{name: "proc.sys_cpu_share", unit: "ratio", moves: "explains cpu_ms_per_op"},
	{name: "proc.peak_rss_mib", unit: "MiB", moves: "explains live_kib_per_op"},
	// ledger
	{name: "ledger.residual_share", unit: "ratio", moves: "unattributed share of a Post's p10; reported, not gated"},
	// reference kernel
	{name: "ref.speed", unit: "ratio", moves: "the machine, not the program: what the three gated times were divided by"},
	// trace
	{name: "trace.overhead_pct", unit: "%", moves: "op_p10_ms difference between traced and untraced rounds"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// manifest renders BENCHMARK.json from the catalogue, so the file the driver
// reads and the metrics the program prints cannot drift apart.
func manifest() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	better := func(m metricDef) string {
		if m.higher {
			return "higher"
		}
		return "lower"
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []gated         `json:"end_to_end"`
		PerLayer   []layer         `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{w.name, w.why})
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, gated{m.name, m.unit, better(m), m.bound})
	}
	for _, m := range perLayerMetrics {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, better(m)})
	}
	return json.MarshalIndent(doc, "", "  ")
}
