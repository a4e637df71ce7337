package hyperprov_test

import (
	"testing"

	"github.com/hyperprov/hyperprov/tools/analyzers/analysis"
	"github.com/hyperprov/hyperprov/tools/analyzers/analysis/analysistest"
	"github.com/hyperprov/hyperprov/tools/analyzers/hyperprov"
)

// violationFixture maps each analyzer to a fixture package seeded with
// known violations of its invariant.
var violationFixture = map[string]string{
	"atomicwrite": "atomicwrite/offchain",
	"clientseam":  "clientseam/core",
	"errcodes":    "errcodes/a",
	"locksafe":    "locksafe/committer",
	"metricnames": "metricnames/app",
	"nojsonwire":  "nojsonwire/transport",
	"onesocket":   "onesocket/transport",
	"walltime":    "walltime/committer",
}

// TestSuiteNotMuted: if an analyzer is accidentally muted — a scoping
// rule that no longer matches, a suppression index gone greedy, a Run
// function short-circuited — its injected-violation fixture yields zero
// diagnostics and this test fails CI, independent of the // want
// annotations (which a muted analyzer would trivially "satisfy" by
// reporting nothing... except that analysistest.Run also fails on
// unmatched expectations; this guard protects against both being edited
// away together).
func TestSuiteNotMuted(t *testing.T) {
	all := hyperprov.All()
	if len(all) != len(violationFixture) {
		t.Fatalf("suite has %d analyzers, self-test knows %d: update violationFixture",
			len(all), len(violationFixture))
	}
	for _, a := range all {
		fixture, ok := violationFixture[a.Name]
		if !ok {
			t.Errorf("analyzer %s has no violation fixture: every analyzer needs one", a.Name)
			continue
		}
		pkg, err := analysistest.Load(analysistest.TestData(), fixture)
		if err != nil {
			t.Errorf("%s: load %s: %v", a.Name, fixture, err)
			continue
		}
		findings, err := analysis.Run(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Errorf("%s: run over %s: %v", a.Name, fixture, err)
			continue
		}
		if len(findings) == 0 {
			t.Errorf("analyzer %s reported zero diagnostics over violation fixture %s: "+
				"the analyzer is muted", a.Name, fixture)
		}
	}
}

// TestLockSafeChainShapes pins locksafe's widened scope on the chain's two
// shapes: the parent's fan-out and replay under the chain's lock is flagged
// in an orderer package, and the height the chain advances now — readers
// waiting outside any lock — passes in a blockstore package.
func TestLockSafeChainShapes(t *testing.T) {
	for fixture, flagged := range map[string]bool{"locksafe/orderer": true, "locksafe/blockstore": false} {
		pkg, err := analysistest.Load(analysistest.TestData(), fixture)
		if err != nil {
			t.Fatalf("load %s: %v", fixture, err)
		}
		findings, err := analysis.Run(pkg, []*analysis.Analyzer{hyperprov.LockSafe})
		if err != nil {
			t.Fatalf("run over %s: %v", fixture, err)
		}
		if got := len(findings) > 0; got != flagged {
			t.Errorf("%s: %d findings, want flagged=%v", fixture, len(findings), flagged)
		}
	}
}

// TestOneSocketServeLoops pins onesocket's second rule on both shapes of a
// service: one that reads frames itself — a hand-rolled serve loop — is
// flagged, and one that brings op table entries to network.Listen passes.
func TestOneSocketServeLoops(t *testing.T) {
	for fixture, flagged := range map[string]bool{"onesocket/serveloop": true, "onesocket/servetable": false} {
		pkg, err := analysistest.Load(analysistest.TestData(), fixture)
		if err != nil {
			t.Fatalf("load %s: %v", fixture, err)
		}
		findings, err := analysis.Run(pkg, []*analysis.Analyzer{hyperprov.OneSocket})
		if err != nil {
			t.Fatalf("run over %s: %v", fixture, err)
		}
		if got := len(findings) > 0; got != flagged {
			t.Errorf("%s: %d findings, want flagged=%v", fixture, len(findings), flagged)
		}
	}
}
