package hyperprov

import (
	"go/ast"

	"github.com/hyperprov/hyperprov/tools/analyzers/analysis"
)

// OneSocket keeps the tree at one TCP endpoint. internal/network owns the
// listener with its connection lifecycle (Listen: accept loop, tracked
// connections, a Close that cannot hang behind an idle client) and the
// redialling client (Dial: timeout, backoff gate, use-after-Close error); a
// service brings an op table and a serve loop. Before PR 22 offchain and
// transport each carried a copy of both halves, the copies had drifted — one
// client dialled without a timeout and redialled silently after Close — and
// the one lifecycle bug that was fixed had to be found in one copy. Opening a
// socket anywhere else is how a third copy arrives. internal/admin is HTTP
// and hands its listener to net/http.
var OneSocket = &analysis.Analyzer{
	Name: "onesocket",
	Doc: "flag net.Listen, net.Dial, net.DialTimeout and net.Dialer outside " +
		"internal/network (and internal/admin, which is HTTP); TCP services " +
		"stand on network.Listen and network.Dial",
	Run: runOneSocket,
}

func runOneSocket(pass *analysis.Pass) error {
	if inScope(pass.Pkg.Path(), "network", "admin") {
		return nil
	}
	allow := newAllowIndex(pass)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue // tests may play a hostile or half-open peer on a raw socket
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Package-level names only: (*net.Dialer).Dial is reached through
			// the net.Dialer that is already a finding.
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "net" || obj.Parent() != obj.Pkg().Scope() {
				return true
			}
			switch obj.Name() {
			case "Listen", "Dial", "DialTimeout", "Dialer":
				if !allow.allowed(pass.Analyzer.Name, sel.Pos()) {
					pass.Reportf(sel.Pos(),
						"net.%s outside internal/network; a TCP service stands on "+
							"network.Listen / network.Dial, which own the connection lifecycle", obj.Name())
				}
			}
			return true
		})
	}
	return nil
}
