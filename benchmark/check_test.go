package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestCatalogNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, m := range list {
			if !metricName.MatchString(m.name) {
				t.Errorf("metric name %q is malformed", m.name)
			}
			if !unitName.MatchString(m.unit) {
				t.Errorf("metric %s has malformed unit %q", m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("metric %s catalogued twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q malformed or reused", w.name)
		}
		seen[w.name] = true
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var issueBounds = map[string]float64{
	"setup_s":          0.25,
	"op_p10_ms":        0.10,
	"cpu_ms_per_op":    0.10,
	"alloc_kib_per_op": 0.03,
	"live_kib_per_op":  0.05,
}

// BENCHMARK.json must name exactly the program's workloads and metrics.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(raw), want) {
		t.Error("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, implemented %q (or their reasons differ)", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: reason is %d characters", w.name, len(w.why))
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d catalogued", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		d := bf.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != "lower" {
			t.Errorf("end-to-end metric %d: declared %+v, catalogued %s [%s]", i, d, m.name, m.unit)
		}
		// The issue fixes the bounds: a time metric that cannot hold 0.10
		// means the workload needs fixing, not the bound widening.
		if want := issueBounds[m.name]; d.Bound != want {
			t.Errorf("end-to-end metric %s: bound %v, the issue fixes %v", m.name, d.Bound, want)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d catalogued", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if d := bf.PerLayer[i]; d.Name != m.name || d.Unit != m.unit {
			t.Errorf("per-layer metric %d: declared %s [%s], catalogued %s [%s]", i, d.Name, d.Unit, m.name, m.unit)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
}

// The smoke mode is the acceptance test of the harness itself: all four
// workloads, untraced and traced, every correctness check, every metric.
// The workloads share nothing, so they run side by side.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads end to end")
	}
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			if err := smoke([]workloadSpec{spec}, 1, t.TempDir()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
