package hyperprov

import (
	"strings"

	"github.com/hyperprov/hyperprov/tools/analyzers/analysis"
)

// ClientSeam keeps internal/core a client library. It reaches the network
// through the eight-call core.Gateway interface and knows no peer, orderer
// or transport: that is what lets the same operators run over a gateway
// served by another machine, lets a 40-line fake stand in for a four-peer
// network in its tests, and keeps "which peer answers" decided in
// fabric/gateway.go alone. Before PR 26 core held a concrete
// *fabric.Gateway and walked Peers() / Ledger() / Executor() through it;
// importing any of these packages is how that comes back. (An analyzer
// sees direct imports only; `make analyze` also checks `go list -deps`.)
var ClientSeam = &analysis.Analyzer{
	Name: "clientseam",
	Doc: "flag imports of the network's own packages (fabric, peer, orderer, " +
		"gossip, transport, committer, recovery, trace, device) in " +
		"non-test internal/core; the client library depends on core.Gateway",
	Run: runClientSeam,
}

// networkSide lists the internal packages on the far side of core.Gateway
// (the Makefile's NETWORK_SIDE is the same nine, for the transitive check).
// endorser is on the client's side: it holds the client's transaction
// builder, endorser.Transact.
var networkSide = []string{"fabric", "peer", "orderer", "gossip", "transport",
	"committer", "recovery", "trace", "device"}

func runClientSeam(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path(), "core") {
		return nil
	}
	banImports(pass, func(path string) bool {
		for _, name := range networkSide {
			if strings.HasSuffix(path, "/internal/"+name) {
				return true
			}
		}
		return false
	}, "%s imported in the client library; internal/core reaches the network "+
		"through the core.Gateway interface only")
	return nil
}
