package analysis

// WarmPure is the shared-warmup contract. Functional warmup computes its
// CPU half (caches, TLBs and walkers, prefetchers, generators, the system's
// own bookkeeping) once per WarmKey and shares it across designs, replaying
// only the translator's Warm/WalkHint calls per cell. That is sound only
// while nothing reachable from any mc.Translator implementation's Warm or
// WalkHint method writes CPU-side state. Three checks enforce it over the
// callgraph reachable from those methods:
//
//   - no reached function has a write effect owned by internal/system,
//     internal/trace, internal/tlb, or internal/cache (writes inside
//     cache.Cache's own methods are judged at their call sites instead,
//     below);
//   - a mutating cache.Cache method is called only on a cache the
//     translator owns: one rooted in the caller's own receiver or
//     parameters (or freshly allocated), not reached through a CPU-side
//     type and not of unknown origin. The designs keep their CTE caches in
//     cache.Cache, so the type alone cannot tell the two apart;
//   - outside the CPU-side packages, no direct write's lvalue passes
//     through a pointer, slice, or map of a CPU-side type (a translator
//     holding a pointer to system state and writing through it; writes
//     inside the CPU-side packages are covered by the first check).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// WarmPure returns the shared-warmup analyzer.
func WarmPure() *Analyzer {
	return &Analyzer{
		Name: "warmpure",
		Doc:  "functions reachable from mc.Translator Warm/WalkHint implementations must not write CPU-side (cache, tlb, trace, system) state",
		Run:  runWarmPure,
	}
}

// cpuSidePkgs own the state the shared warmup computes once per WarmKey.
var cpuSidePkgs = []string{"internal/system", "internal/trace", "internal/tlb", "internal/cache"}

func cpuSidePkg(p *types.Package) bool {
	if p == nil {
		return false
	}
	for _, s := range cpuSidePkgs {
		if pathHasSuffix(p.Path(), s) {
			return true
		}
	}
	return false
}

// cpuSideType reports whether t (through pointers and containers) is a
// CPU-side named type. cache.Cache and cache.Config are shared with the
// memory controllers and excluded.
func cpuSideType(t types.Type) (string, bool) {
	n := ownerNamed(t)
	if n == nil || !cpuSidePkg(n.Obj().Pkg()) {
		return "", false
	}
	obj := n.Obj()
	if fromPkg(obj, "internal/cache") && (obj.Name() == "Cache" || obj.Name() == "Config") {
		return "", false
	}
	return obj.Pkg().Name() + "." + obj.Name(), true
}

// sharedCPUSide is cpuSideType restricted to pointer-shaped types.
func sharedCPUSide(t types.Type) (string, bool) {
	if t == nil || !pointerShapedValue(t) {
		return "", false
	}
	return cpuSideType(t)
}

// isCacheMethod reports whether n is a method of cache.Cache.
func isCacheMethod(n *Node) bool {
	if n.Obj == nil {
		return false
	}
	sig, _ := n.Obj.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil && isNamedFrom(ownerNamed(sig.Recv().Type()), "internal/cache", "Cache")
}

func runWarmPure(prog *Program) []Diagnostic {
	g := BuildCallGraph(prog)
	var diags []Diagnostic
	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		diags = append(diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, root := range warmRoots(g) {
		reach := g.ReachableWhere(isCacheMethod, root)
		for _, n := range reach.Nodes() {
			if isTestFile(prog.Fset.Position(n.Pos()).Filename) {
				continue
			}
			why := fmt.Sprintf("reachable from %s (%s); shared warmup needs translator warmup to leave CPU-side state alone",
				root.Name, reach.Chain(n))
			for _, eff := range n.Effects {
				if cpuSidePkg(eff.Pkg) {
					report(eff.Pos, "%s writes %s but is %s", n.Name, eff.Desc, why)
				}
			}
			checkWarmBody(g, n, func(pos token.Pos, what string) {
				report(pos, "%s %s but is %s", n.Name, what, why)
			})
		}
	}
	return diags
}

// warmRoots collects the Warm and WalkHint methods of every module type
// implementing mc.Translator, in declaration order.
func warmRoots(g *CallGraph) []*Node {
	var iface *types.Interface
	for _, n := range g.named {
		if n.Obj().Name() == "Translator" && fromPkg(n.Obj(), "internal/mc") {
			iface, _ = n.Underlying().(*types.Interface)
		}
	}
	if iface == nil {
		return nil
	}
	var roots []*Node
	seen := make(map[*Node]bool)
	for _, n := range g.named {
		if _, isIface := n.Underlying().(*types.Interface); isIface {
			continue
		}
		ptr := types.NewPointer(n)
		if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
			continue
		}
		for _, name := range []string{"Warm", "WalkHint"} {
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, n.Obj().Pkg(), name)
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if root := g.byObj[fn]; root != nil && !seen[root] && !isTestFile(g.prog.Fset.Position(root.Pos()).Filename) {
				seen[root] = true
				roots = append(roots, root)
			}
		}
	}
	return roots
}

// checkWarmBody runs the call-site and lvalue checks over one reached
// function, reusing the write-set alias pass to resolve where a cache
// receiver is rooted.
func checkWarmBody(g *CallGraph, n *Node, report func(token.Pos, string)) {
	w := &effectWalker{
		g:       g,
		n:       n,
		info:    n.Pkg.Info,
		params:  paramVars(n),
		aliases: make(map[*types.Var]origin),
		seen:    make(map[string]bool),
	}
	inCPUSide := cpuSidePkg(n.Pkg.Types)
	lvalue := func(lv ast.Expr) {
		if inCPUSide {
			return
		}
		if name, ok := throughCPUSide(w.info, lv); ok {
			report(lv.Pos(), "writes through "+name)
		}
	}
	ast.Inspect(n.Body(), func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			return false // its own node
		case *ast.AssignStmt:
			w.assign(x)
			if x.Tok != token.DEFINE {
				for _, lv := range x.Lhs {
					lvalue(lv)
				}
			}
		case *ast.IncDecStmt:
			lvalue(x.X)
		case *ast.RangeStmt:
			w.rangeAliases(x)
		case *ast.CallExpr:
			checkCacheCall(g, w, x, report)
		}
		return true
	})
}

// checkCacheCall flags a mutating cache.Cache method called on a cache the
// function does not own.
func checkCacheCall(g *CallGraph, w *effectWalker, call *ast.CallExpr, report func(token.Pos, string)) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := calleeOf(w.info, call).(*types.Func)
	if !ok {
		return
	}
	callee := g.byObj[fn]
	if callee == nil || !isCacheMethod(callee) || len(callee.Effects) == 0 {
		return
	}
	what := "calls " + callee.Name + " on a cache.Cache"
	if name, through := throughCPUSide(w.info, sel.X); through {
		report(call.Pos(), what+" reached through "+name)
		return
	}
	switch o := w.originOf(sel.X); {
	case o.kind == origFresh:
	case o.kind == origEffect && o.eff.Kind == EffectState && !cpuSidePkg(o.eff.Pkg):
	default:
		report(call.Pos(), what+" it does not own")
	}
}

// throughCPUSide reports whether an lvalue or receiver chain passes through
// shared CPU-side state: a base or intermediate operand whose type is a
// pointer, slice, or map of a CPU-side type. A CPU-side value (a local
// copy) breaks the link.
func throughCPUSide(info *types.Info, e ast.Expr) (string, bool) {
	for {
		e = ast.Unparen(e)
		var next ast.Expr
		switch x := e.(type) {
		case *ast.SelectorExpr:
			next = x.X
		case *ast.IndexExpr:
			next = x.X
		case *ast.StarExpr:
			next = x.X
		case *ast.SliceExpr:
			next = x.X
		case *ast.Ident:
			if _, isPkg := info.Uses[x].(*types.PkgName); isPkg {
				return "", false
			}
			return sharedCPUSide(info.TypeOf(x))
		default:
			return "", false
		}
		if name, ok := sharedCPUSide(info.TypeOf(next)); ok {
			return name, true
		}
		e = next
	}
}
