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
	allow := newAllowIndex(pass)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue // tests may build hostile or legacy bodies
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || (path != "encoding/json" && path != "encoding/base64") {
				continue
			}
			if allow.allowed(pass.Analyzer.Name, imp.Pos()) {
				continue
			}
			pass.Reportf(imp.Pos(),
				"%s imported in a package that owns a wire; frame bodies are "+
					"internal/codec encodings and payload bytes travel raw", path)
		}
	}
	return nil
}
