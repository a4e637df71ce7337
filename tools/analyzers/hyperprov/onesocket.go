package hyperprov

import (
	"go/ast"
	"slices"

	"github.com/hyperprov/hyperprov/tools/analyzers/analysis"
)

// OneSocket keeps the tree at one TCP endpoint and one way to serve an op.
// internal/network owns the listener with its connection lifecycle (Listen:
// accept loop, tracked connections, a Close that cannot hang behind an idle
// client), the redialling client (Dial: timeout, backoff gate,
// use-after-Close error), and the loop that serves a connection (an op
// table: header, op byte, handler, frame sync); a service brings the table's
// entries. Before the shared endpoint, offchain and transport each carried
// a copy of it, the copies had drifted — one client dialled without a
// timeout and redialled silently after Close — and the one lifecycle bug
// that was fixed had to be found in one copy; until the op table each also
// hand-rolled its own serve loop. Opening a socket anywhere else is how a third copy of the
// endpoint arrives, and reading frames anywhere else (network.ReadFrame,
// network.ReadFrameExt) is how a third serve loop does. internal/admin is
// HTTP and hands its listener to net/http.
var OneSocket = &analysis.Analyzer{
	Name: "onesocket",
	Doc: "flag net.Listen, net.Dial, net.DialTimeout and net.Dialer, and " +
		"network.ReadFrame / ReadFrameExt, outside internal/network (and " +
		"internal/admin, which is HTTP); TCP services stand on network.Listen " +
		"with an op table and on network.Dial",
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
			if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
				return true
			}
			var msg string
			switch pkg := pkgSegments(obj.Pkg().Path()); {
			case obj.Pkg().Path() == "net" && slices.Contains([]string{"Listen", "Dial", "DialTimeout", "Dialer"}, obj.Name()):
				msg = "net.%s outside internal/network; a TCP service stands on " +
					"network.Listen / network.Dial, which own the connection lifecycle"
			case pkg[len(pkg)-1] == "network" && slices.Contains([]string{"ReadFrame", "ReadFrameExt"}, obj.Name()):
				msg = "network.%s outside internal/network; a served op is an entry of " +
					"a network.Table, whose loop reads every request"
			default:
				return true
			}
			if !allow.allowed(pass.Analyzer.Name, sel.Pos()) {
				pass.Reportf(sel.Pos(), msg, obj.Name())
			}
			return true
		})
	}
	return nil
}
