package hyperprov_test

import (
	"testing"

	"github.com/hyperprov/hyperprov/tools/analyzers/analysis/analysistest"
	"github.com/hyperprov/hyperprov/tools/analyzers/hyperprov"
)

func TestAtomicWrite(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hyperprov.AtomicWrite,
		"atomicwrite/offchain", "atomicwrite/other")
}

func TestClientSeam(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hyperprov.ClientSeam,
		"clientseam/core", "clientseam/cli")
}

func TestErrCodes(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hyperprov.ErrCodes,
		"errcodes/a")
}

func TestLockSafe(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hyperprov.LockSafe,
		"locksafe/committer", "locksafe/other", "locksafe/orderer", "locksafe/blockstore")
}

func TestMetricNames(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hyperprov.MetricNames,
		"metricnames/app", "metricnames/metrics")
}

func TestNoJSONWire(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hyperprov.NoJSONWire,
		"nojsonwire/transport", "nojsonwire/other")
}

func TestOneSocket(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hyperprov.OneSocket,
		"onesocket/transport", "onesocket/network", "onesocket/serveloop", "onesocket/servetable")
}

func TestWallTime(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), hyperprov.WallTime,
		"walltime/committer", "walltime/other")
}
