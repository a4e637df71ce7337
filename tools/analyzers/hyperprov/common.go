package hyperprov

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/hyperprov/hyperprov/tools/analyzers/analysis"
)

// pkgSegments splits a package path into its segments, normalizing the
// go command's test-variant spellings ("pkg.test", "pkg_test") back onto
// the package they test so scoping rules apply to test packages too.
func pkgSegments(path string) []string {
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	return strings.Split(path, "/")
}

// inScope reports whether the package path contains any of the named
// segments — how each analyzer limits itself to the packages whose
// invariant it enforces (e.g. "offchain" matches both
// github.com/hyperprov/hyperprov/internal/offchain and an analysistest
// fixture path like atomicwrite/offchain).
func inScope(path string, segments ...string) bool {
	for _, got := range pkgSegments(path) {
		for _, want := range segments {
			if got == want {
				return true
			}
		}
	}
	return false
}

// isTestFile reports whether the file holding pos is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// allowPrefix is the line-level suppression directive: a comment
//
//	//hyperprov:allow <name>[,<name>...] <reason>
//
// on the flagged line, or alone on the line directly above it, suppresses
// the named analyzers' diagnostics for that line. The reason is free text
// but should say why the invariant legitimately does not apply.
const allowPrefix = "hyperprov:allow"

// allowIndex records, per file and line, which analyzers are suppressed.
type allowIndex struct {
	fset  *token.FileSet
	lines map[string]map[int][]string // filename -> line -> analyzer names
}

// newAllowIndex scans every comment in the pass for allow directives.
func newAllowIndex(pass *analysis.Pass) *allowIndex {
	idx := &allowIndex{fset: pass.Fset, lines: make(map[string]map[int][]string)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, allowPrefix))
				if len(fields) == 0 {
					continue
				}
				names := strings.Split(fields[0], ",")
				posn := pass.Fset.Position(c.Pos())
				byLine := idx.lines[posn.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					idx.lines[posn.Filename] = byLine
				}
				byLine[posn.Line] = append(byLine[posn.Line], names...)
			}
		}
	}
	return idx
}

// allowed reports whether analyzer name is suppressed at pos (directive on
// the same line or the line immediately above).
func (idx *allowIndex) allowed(name string, pos token.Pos) bool {
	posn := idx.fset.Position(pos)
	byLine := idx.lines[posn.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{posn.Line, posn.Line - 1} {
		for _, n := range byLine[line] {
			if n == name {
				return true
			}
		}
	}
	return false
}

// calleeFunc resolves the called function or method of call, following
// identifiers and selectors through the type info. It returns nil for
// calls of function-typed variables, conversions, and built-ins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function name declared
// in a package whose path ends with pkgSeg (e.g. ("os", "WriteFile")).
func isPkgFunc(fn *types.Func, pkgSeg, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	segs := pkgSegments(fn.Pkg().Path())
	return len(segs) > 0 && segs[len(segs)-1] == pkgSeg
}

// namedType unwraps pointers and aliases to the named type of t, or nil.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// typeName declared in a package whose path ends with pkgSeg.
func isNamed(t types.Type, pkgSeg, typeName string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Name() != typeName || n.Obj().Pkg() == nil {
		return false
	}
	segs := pkgSegments(n.Obj().Pkg().Path())
	return len(segs) > 0 && segs[len(segs)-1] == pkgSeg
}

// methodOn reports whether call invokes a method with one of the given
// names on the named type typeName from a package ending in pkgSeg,
// returning the method name and true.
func methodOn(info *types.Info, call *ast.CallExpr, pkgSeg, typeName string, names ...string) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isNamed(recv.Type(), pkgSeg, typeName) {
		return "", false
	}
	for _, n := range names {
		if fn.Name() == n {
			return n, true
		}
	}
	return "", false
}
