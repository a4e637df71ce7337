// Command hyperprov-vet is the repo's domain-specific vet tool: a
// multichecker over the seven analyzers in the hyperprov package, run from
// `make lint` as
//
//	go vet -vettool=$(pwd)/tools/analyzers/bin/hyperprov-vet ./...
//
// Each analyzer enforces one invariant an earlier PR established the hard
// way; see the README's "Static analysis & enforced invariants" table and
// the per-analyzer Doc strings.
package main

import (
	"github.com/hyperprov/hyperprov/tools/analyzers/hyperprov"
	"github.com/hyperprov/hyperprov/tools/analyzers/unitchecker"
)

func main() {
	unitchecker.Main(hyperprov.All()...)
}
