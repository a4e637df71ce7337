package hyperprov

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"github.com/hyperprov/hyperprov/tools/analyzers/analysis"
)

// LockSafe enforces the locking discipline the ledger databases and the
// committer depend on, and the chain's no-wedge rule: in
// the ledger databases, one lock each (statedb, historydb), in the
// committer, and on the chain's path to its readers (orderer, peer,
// blockstore), a sync.Mutex/RWMutex must never be held across a blocking
// operation — a channel send/receive/select, time.Sleep, a
// sync.WaitGroup.Wait, or network I/O — because one stalled holder would
// serialize every other goroutine behind that lock: with one lock per
// database, every reader and the commit pipeline, or, for a chain that sent
// blocks to its subscribers under its lock, ordering itself.
//
// The check is an intra-function, source-order heuristic: between x.Lock()
// and the textually matching x.Unlock() (same receiver expression), any
// blocking operation is flagged; `defer x.Unlock()` marks the lock held to
// the end of the function. Function literals are analyzed as their own
// scope (a closure defined under a lock runs later, not under it).
var LockSafe = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "flag sync.Mutex/RWMutex held across channel operations, " +
		"time.Sleep, WaitGroup.Wait, or net I/O in the ledger databases, " +
		"one lock each (statedb, historydb), in the committer, and on the " +
		"chain's path to its readers (orderer, peer, blockstore)",
	Run: runLockSafe,
}

func runLockSafe(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path(), "statedb", "historydb", "committer", "orderer", "peer", "blockstore") {
		return nil
	}
	allow := newAllowIndex(pass)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue // test helpers synchronize however they like
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkLockSpans(pass, allow, n.Body)
				}
			case *ast.FuncLit:
				checkLockSpans(pass, allow, n.Body)
			}
			return true
		})
	}
	return nil
}

// lockEvent is one Lock/Unlock call on a receiver, or a deferred Unlock.
type lockEvent struct {
	pos      token.Pos
	delta    int // +1 Lock/RLock, -1 Unlock/RUnlock
	deferred bool
}

// checkLockSpans scans one function body (excluding nested FuncLits) for
// blocking operations that occur while a mutex is held.
func checkLockSpans(pass *analysis.Pass, allow *allowIndex, body *ast.BlockStmt) {
	events := make(map[string][]lockEvent) // receiver expr -> events
	type blockOp struct {
		pos  token.Pos
		what string
	}
	var ops []blockOp

	var walk func(n ast.Node, inDefer bool)
	walk = func(root ast.Node, inDefer bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // separate scope, analyzed on its own
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.SendStmt:
				ops = append(ops, blockOp{n.Pos(), "channel send"})
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					ops = append(ops, blockOp{n.Pos(), "channel receive"})
				}
			case *ast.SelectStmt:
				ops = append(ops, blockOp{n.Pos(), "select"})
				// The select's cases contain the channel ops already counted
				// by this entry; don't double-report, but do descend into the
				// case bodies for locks and further ops.
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						ops = append(ops, blockOp{n.Pos(), "range over channel"})
					}
				}
			case *ast.CallExpr:
				if recv, name, ok := mutexCall(pass.TypesInfo, n); ok {
					ev := lockEvent{pos: n.Pos()}
					switch name {
					case "Lock", "RLock":
						ev.delta = +1
					case "Unlock", "RUnlock":
						ev.delta = -1
						ev.deferred = inDefer
					}
					events[recv] = append(events[recv], ev)
					return true
				}
				if what, ok := blockingCall(pass.TypesInfo, n); ok {
					ops = append(ops, blockOp{n.Pos(), what})
				}
			}
			return true
		})
	}
	walk(body, false)

	if len(ops) == 0 {
		return
	}
	for recv, evs := range events {
		sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		for _, op := range ops {
			held := 0
			for _, ev := range evs {
				if ev.pos >= op.pos {
					break
				}
				if ev.deferred {
					continue // releases at function exit, still held at op
				}
				held += ev.delta
				if held < 0 {
					held = 0
				}
			}
			if held > 0 && !allow.allowed(pass.Analyzer.Name, op.pos) {
				pass.Reportf(op.pos,
					"%s while holding %s; a lock every reader waits on must not be held across blocking operations — "+
						"release the lock first or move the blocking work out of the critical section",
					op.what, recv)
			}
		}
	}
}

// mutexCall reports whether call is Lock/RLock/Unlock/RUnlock on a
// sync.Mutex, sync.RWMutex, or sync.Locker receiver, returning the
// receiver's source text and the method name.
func mutexCall(info *types.Info, call *ast.CallExpr) (recv, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	tv, okT := info.Types[sel.X]
	if !okT {
		return "", "", false
	}
	if !isNamed(tv.Type, "sync", "Mutex") && !isNamed(tv.Type, "sync", "RWMutex") &&
		!isNamed(tv.Type, "sync", "Locker") {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// blockingCall classifies calls that block: time.Sleep, WaitGroup.Wait,
// Cond.Wait, and anything from package net (dial, read, write ...).
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	if isPkgFunc(fn, "time", "Sleep") {
		return "time.Sleep", true
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		// sync.Cond.Wait is deliberately absent: waiting on a condition
		// variable requires holding its mutex (Wait releases it internally).
		if fn.Name() == "Wait" && isNamed(recv.Type(), "sync", "WaitGroup") {
			return "sync.WaitGroup.Wait", true
		}
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "net" {
		return "net." + fn.Name(), true
	}
	return "", false
}
