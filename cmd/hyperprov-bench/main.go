// Command hyperprov-bench regenerates the paper's evaluation from the one
// table in internal/bench: one experiment per figure (Figs 1–3) plus the
// ablations listed in README "Paper figures & ablations". Each result
// prints as the text table its figure plots, labelled with the clock its
// numbers are in.
//
// Usage:
//
//	hyperprov-bench [-experiment name|all] [-quick] [-out-dir dir]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/hyperprov/hyperprov/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run: one name from the table, or all")
	quick := flag.Bool("quick", false, "use reduced sweep sizes and windows")
	outDir := flag.String("out-dir", "", "also write each result to <dir>/<name>.json (empty: print only)")
	flag.Parse()
	if err := run(os.Stdout, bench.Experiments, *experiment, *quick, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "hyperprov-bench:", err)
		os.Exit(1)
	}
}

// stamped is the shape of every <out-dir>/<name>.json.
type stamped struct {
	Experiment string       `json:"experiment"`
	Clock      string       `json:"clock"`
	Quick      bool         `json:"quick"`
	Result     bench.Report `json:"result"`
}

// run executes the named experiment of table (every one, in table order,
// for "all"), printing each report to w and, when outDir is set, writing it
// stamped to <outDir>/<name>.json.
func run(w io.Writer, table []bench.Experiment, name string, quick bool, outDir string) error {
	selected := table
	if name != "all" {
		selected = nil
		names := make([]string, len(table))
		for i, e := range table {
			names[i] = e.Name
			if e.Name == name {
				selected = table[i : i+1]
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown experiment %q (valid: %s, all)", name, strings.Join(names, ", "))
		}
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	for _, e := range selected {
		res, err := e.Run(quick)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintf(w, "[%s clock] %s\n", e.Clock, res.Format())
		if outDir == "" {
			continue
		}
		raw, err := json.MarshalIndent(stamped{e.Name, e.Clock, quick, res}, "", "  ")
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		path := filepath.Join(outDir, e.Name+".json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", path)
	}
	return nil
}
