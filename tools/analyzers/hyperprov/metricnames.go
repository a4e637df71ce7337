package hyperprov

import (
	"go/ast"
	"go/constant"

	"github.com/hyperprov/hyperprov/tools/analyzers/analysis"
)

// MetricNames keeps metric cardinality bounded: every name passed to
// metrics.Registry.Counter/Gauge/GaugeFunc/Histogram must be a compile-time
// constant snake_case string. Dynamic names mint a new time series per distinct
// value and explode the scrape; the one sanctioned dynamic dimension is
// the PR 8 {channel="..."} label on WritePrometheusLabeled, which attaches
// a label instead of renaming the family. Pass-through helpers that
// forward a constant name (e.g. transport's count(name)) carry a
// //hyperprov:allow metricnames directive with their justification.
var MetricNames = &analysis.Analyzer{
	Name: "metricnames",
	Doc: "flag non-constant or non-snake_case metric family names passed " +
		"to metrics.Registry.Counter/Gauge/GaugeFunc/Histogram; the channel label is " +
		"the sanctioned dynamic dimension",
	Run: runMetricNames,
}

func runMetricNames(pass *analysis.Pass) error {
	if inScope(pass.Pkg.Path(), "metrics") {
		return nil // the registry itself necessarily handles names as values
	}
	allow := newAllowIndex(pass)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, ok := methodOn(pass.TypesInfo, call, "metrics", "Registry",
				"Counter", "Gauge", "GaugeFunc", "Histogram")
			if !ok || len(call.Args) == 0 {
				return true
			}
			if allow.allowed(pass.Analyzer.Name, call.Pos()) {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(call.Args[0].Pos(),
					"metric family name passed to Registry.%s is not a compile-time constant; "+
						"dynamic names explode cardinality — use a constant family name, "+
						"and the {channel=...} label for the per-channel dimension", kind)
				return true
			}
			if name := constant.StringVal(tv.Value); !isSnakeCase(name) {
				pass.Reportf(call.Args[0].Pos(),
					"metric family name %q is not snake_case ([a-z0-9_], starting with a letter)", name)
			}
			return true
		})
	}
	return nil
}

// isSnakeCase reports whether name matches ^[a-z][a-z0-9_]*$.
func isSnakeCase(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z':
		case i > 0 && (r == '_' || (r >= '0' && r <= '9')):
		default:
			return false
		}
	}
	return true
}
