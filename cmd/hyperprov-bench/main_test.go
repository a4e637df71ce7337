package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hyperprov/hyperprov/internal/bench"
)

type fakeReport struct{ Rows []int }

func (r fakeReport) Format() string { return "fake table" }

// TestExperimentTable pins the harness's one entrance: the table is
// well-formed, and run selects from it, and only from it, writing what
// -out-dir asks for and nothing else. A stub table stands in for the real
// runs, which internal/bench's shape tests already pay for once each.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range bench.Experiments {
		if e.Name == "" || e.Name == "all" || seen[e.Name] {
			t.Errorf("experiment name %q is empty, reserved or duplicated", e.Name)
		}
		seen[e.Name] = true
		if e.Clock != bench.ClockModeled && e.Clock != bench.ClockReal {
			t.Errorf("%s: clock %q is neither modeled nor real", e.Name, e.Clock)
		}
		if e.Run == nil {
			t.Errorf("%s: no Run", e.Name)
		}
	}
	if len(bench.Experiments) != 8 {
		t.Errorf("table holds %d experiments, want 8", len(bench.Experiments))
	}

	var ran []string
	var quicks []bool
	stub := func(name string) bench.Experiment {
		return bench.Experiment{Name: name, Clock: bench.ClockModeled, Run: func(quick bool) (bench.Report, error) {
			ran = append(ran, name)
			quicks = append(quicks, quick)
			return fakeReport{Rows: []int{1, 2}}, nil
		}}
	}
	table := []bench.Experiment{stub("b"), stub("a"), stub("c")}

	// No -out-dir: reports print, nothing lands in the working directory.
	t.Chdir(t.TempDir())
	var out strings.Builder
	if err := run(&out, table, "all", false, ""); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ran, ","); got != "b,a,c" {
		t.Errorf("all ran %s, want table order b,a,c", got)
	}
	if n := strings.Count(out.String(), "[modeled clock] fake table"); n != 3 {
		t.Errorf("printed %d labelled tables, want 3:\n%s", n, out.String())
	}
	if left, _ := os.ReadDir("."); len(left) != 0 {
		t.Errorf("run without -out-dir left %d files behind", len(left))
	}

	err := run(io.Discard, table, "commit", false, "")
	if err == nil || !strings.Contains(err.Error(), "b, a, c, all") {
		t.Errorf("unknown name: err = %v, want the valid names listed", err)
	}

	// -out-dir: one stamped file per experiment run, and only those.
	ran, quicks = nil, nil
	dir := filepath.Join(t.TempDir(), "nested", "out")
	if err := run(io.Discard, table, "a", true, dir); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != "a" || !quicks[0] {
		t.Errorf("-experiment a -quick ran %v with quick=%v", ran, quicks)
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 || files[0].Name() != "a.json" {
		t.Fatalf("out-dir holds %v (err %v), want exactly a.json", files, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Experiment, Clock string
		Quick             bool
		Result            fakeReport
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Experiment != "a" || back.Clock != bench.ClockModeled || !back.Quick || len(back.Result.Rows) != 2 {
		t.Errorf("stamp round trip = %+v", back)
	}
}
