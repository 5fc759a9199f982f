package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"unicode"
)

// hookBannedPkgs are packages an observer body must never call into:
// wall-clock and global randomness break replayability, and os touches
// process state.
var hookBannedPkgs = map[string]bool{
	"time":         true,
	"math/rand":    true,
	"math/rand/v2": true,
	"os":           true,
}

// HookPureAnalyzer guards the probe-inertness contract: installing a
// probe must not change simulation results or timing-sensitive behavior,
// so code that runs per simulated event on the observation path has to
// stay cheap and side-effect free. It inspects two shapes of such code:
//
//   - every method of a type whose name ends in Observer (the probe's
//     per-component adapter, the flight recorder's stall feed, ...)
//   - closures assigned to On* fields inside internal/fabric (the
//     energy meter's wire hooks, the checker's violation callback)
//
// Inside such a body the analyzer flags:
//
//   - calls into time, math/rand, math/rand/v2, or os
//   - allocations: the append/make/new builtins and composite literals
//     (an observer runs on the hot path of every simulated event)
//   - writes to shared state: assignments or ++/-- through selectors,
//     indexes, or dereferences whose root is not a non-pointer variable
//     declared inside the body (a pointer receiver counts as shared),
//     and assignments to captured plain variables
//
// Observers that genuinely need aggregation delegate it to a method of
// the aggregating type (SpanTracker, StallTracker), not to their own
// state; anything else carries a reasoned //lint:ignore hookpure.
func HookPureAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "hookpure",
		Doc:  "keep *Observer methods and fabric On* hook closures allocation-free, clock-free, and side-effect free",
		Run: func(p *Package, report Reporter) {
			closures := inScope(p.RelPath, []string{"internal/fabric"})
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.FuncDecl:
						if x.Body != nil && x.Recv != nil && len(x.Recv.List) == 1 {
							if name := recvTypeName(x.Recv.List[0].Type); strings.HasSuffix(name, "Observer") {
								checkHookBody(p, name+"."+x.Name.Name, x, x.Body, report)
							}
						}
					case *ast.AssignStmt:
						if !closures || len(x.Lhs) != 1 || len(x.Rhs) != 1 {
							return true
						}
						sel, ok := x.Lhs[0].(*ast.SelectorExpr)
						if !ok || !isHookField(sel.Sel.Name) {
							return true
						}
						if lit, ok := x.Rhs[0].(*ast.FuncLit); ok {
							checkHookBody(p, sel.Sel.Name, lit, lit.Body, report)
						}
					}
					return true
				})
			}
		},
	}
}

// recvTypeName returns the type name of a method receiver.
func recvTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isHookField matches the hook-field naming convention: On followed by
// a capitalized event name.
func isHookField(name string) bool {
	return len(name) > 2 && name[0] == 'O' && name[1] == 'n' && unicode.IsUpper(rune(name[2]))
}

// checkHookBody inspects one observer body for impurities; fn is the
// enclosing closure or method, whose parameters count as local.
func checkHookBody(p *Package, hook string, fn ast.Node, body *ast.BlockStmt, report Reporter) {
	// Everything declared inside the body (params included) is local;
	// writes to locals are fine, writes to anything else are shared
	// state.
	local := map[types.Object]bool{}
	ast.Inspect(fn, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	checkWrite := func(lhs ast.Expr) {
		switch t := unparen(lhs).(type) {
		case *ast.Ident:
			if t.Name == "_" {
				return
			}
			obj := p.Info.Uses[t]
			if obj == nil {
				obj = p.Info.Defs[t]
			}
			if obj != nil && !local[obj] {
				report(t.Pos(), "hook %s writes captured variable %s: observers must not mutate shared state", hook, t.Name)
			}
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			if rootIsLocalValue(p, t, local) {
				return
			}
			report(lhs.Pos(), "hook %s writes through %s: observers must not mutate shared state", hook, types.ExprString(lhs))
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			switch f := unparen(x.Fun).(type) {
			case *ast.Ident:
				if b, ok := p.Info.Uses[f].(*types.Builtin); ok {
					switch b.Name() {
					case "append", "make", "new":
						report(x.Pos(), "hook %s allocates via %s: observers run per simulated event and must stay allocation-free", hook, b.Name())
					}
				}
			case *ast.SelectorExpr:
				if id, ok := f.X.(*ast.Ident); ok {
					if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && hookBannedPkgs[pn.Imported().Path()] {
						report(x.Pos(), "hook %s calls %s.%s: observers must stay pure (no clock, global RNG, or process state)", hook, pn.Imported().Path(), f.Sel.Name)
					}
				}
			}
		case *ast.CompositeLit:
			report(x.Pos(), "hook %s allocates a composite literal: observers run per simulated event and must stay allocation-free", hook)
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(x.X)
		}
		return true
	})
}

// rootIsLocalValue reports whether the write target bottoms out in a
// non-pointer variable declared inside the closure: mutating a local
// value (array element, struct field of a local) cannot leak.
func rootIsLocalValue(p *Package, e ast.Expr, local map[types.Object]bool) bool {
	for {
		switch t := unparen(e).(type) {
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.Ident:
			obj := p.Info.Uses[t]
			if obj == nil || !local[obj] {
				return false
			}
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
				return false
			}
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				return false
			}
			if _, isMap := obj.Type().Underlying().(*types.Map); isMap {
				return false
			}
			return true
		default:
			return false
		}
	}
}
