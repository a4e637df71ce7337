package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// calibrate runs each named workload n times, each in a fresh process with
// its own seed (as the driver does), and prints per metric the median, the
// quartiles, their distance as a share of the median, and the largest
// relative deviation of any run. NOISE.md is this output; it is the evidence
// behind each bound in BENCHMARK.json.
func calibrate(w io.Writer, specs []workloadSpec, n int, seed int64, seconds float64, traced bool, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	stamp := newEnvStamp(seed, outDir)
	fmt.Fprintf(w, "Calibration: %d runs per workload, seeds %d..%d, -seconds %g, -trace %s.\n\n", n, seed, seed+int64(n)-1, seconds, traceArg)
	for _, spec := range specs {
		samples := map[string][]float64{}
		units := map[string]string{}
		var refLog [][]float64
		for k := 0; k < n; k++ {
			cmd := exec.Command(self,
				"-workload", spec.name,
				"-seed", strconv.FormatInt(seed+int64(k), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", traceArg,
				"-out", outDir)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w\n%s", spec.name, k, err, stderr.String())
			}
			res, err := lastResult(stdout.Bytes())
			if err != nil {
				return fmt.Errorf("%s run %d: %w", spec.name, k, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: %d of %d operations failed", spec.name, k, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				samples[name] = append(samples[name], m.Value)
				units[name] = m.Unit
			}
			// What the run measured before the speed correction, for
			// comparison: rows marked "as measured" are not metrics.
			if rep, err := readReport(outDir, spec.name, traced); err == nil && !traced {
				for name, v := range rep.Raw {
					samples[name+" (as measured)"] = append(samples[name+" (as measured)"], v)
					units[name+" (as measured)"] = unitOf(name)
				}
				samples["machine speed"] = append(samples["machine speed"], rep.Speed)
				samples["steal share"] = append(samples["steal share"], rep.Env.StealShare)
				units["machine speed"], units["steal share"] = "ratio", "ratio"
				refLog = append(refLog, rep.RefSamples)
			}
		}
		// Every run's values, for anyone who wants another statistic.
		if raw, err := json.Marshal(map[string]any{"samples": samples, "refSamplesCPUMs": refLog}); err == nil {
			_ = os.WriteFile(filepath.Join(outDir, "calibration-"+spec.name+".json"), raw, 0o644)
		}
		names := make([]string, 0, len(samples))
		for name := range samples {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "### %s\n\n", spec.name)
		fmt.Fprintln(w, "| metric | unit | median | q1 | q3 | (q3-q1)/median | max deviation |")
		fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---:|")
		for _, name := range names {
			sp := summarize(samples[name])
			fmt.Fprintf(w, "| %s | %s | %.4f | %.4f | %.4f | %.2f%% | %.2f%% |\n",
				name, units[name], sp.Median, sp.Q1, sp.Q3, 100*sp.IQRShare, 100*sp.MaxDev)
		}
		fmt.Fprintln(w)
	}
	stamp.finish()
	stamp.print(w)
	return nil
}

// lastResult parses the final line of a run's standard output.
func lastResult(stdout []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}

// readReport loads the report a finished run left in outDir.
func readReport(outDir, workload string, traced bool) (*report, error) {
	raw, err := os.ReadFile(reportPath(outDir, workload, traced))
	if err != nil {
		return nil, err
	}
	var rep report
	return &rep, json.Unmarshal(raw, &rep)
}
