package hyperprov

import (
	"strconv"

	"github.com/hyperprov/hyperprov/tools/analyzers/analysis"
)

// NoJSONWire keeps text encodings off the sockets. The packages that own a
// wire — network (framing), offchain (object store RPC), transport (peer
// RPC) — frame internal/codec bodies: payloads and blocks travel as raw
// length-delimited bytes. PR 17 measured what the alternative costs: a
// 256 KiB payload base64-encoded into a JSON string, validated byte by byte
// and decoded again was ≈ 5 ms of a 7 ms StoreData+GetData, and a gossiped
// block was 1.36 × its size on the wire. Importing encoding/json or
// encoding/base64 in these packages is how that comes back.
var NoJSONWire = &analysis.Analyzer{
	Name: "nojsonwire",
	Doc: "flag imports of encoding/json and encoding/base64 in the packages " +
		"that own a wire (network, offchain, transport); frame bodies are " +
		"internal/codec encodings",
	Run: runNoJSONWire,
}

func runNoJSONWire(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path(), "network", "offchain", "transport") {
		return nil
	}
	banImports(pass, func(path string) bool { return path == "encoding/json" || path == "encoding/base64" },
		"%s imported in a package that owns a wire; frame bodies are "+
			"internal/codec encodings and payload bytes travel raw")
	return nil
}

// banImports reports, with format applied to the import path, every import
// in the pass's non-test files that banned names. Tests are exempt: they
// may build hostile or legacy bodies, or assemble the network a fake
// stands in for.
func banImports(pass *analysis.Pass, banned func(path string) bool, format string) {
	allow := newAllowIndex(pass)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !banned(path) || allow.allowed(pass.Analyzer.Name, imp.Pos()) {
				continue
			}
			pass.Reportf(imp.Pos(), format, path)
		}
	}
}
