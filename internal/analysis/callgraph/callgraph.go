// Package callgraph builds the static call graph of one type-checked
// package: the shared substrate of bitdew-vet's interprocedural passes
// (lockorder, deadlineprop). It is itself an Analyzer — the
// passes declare it in Requires and read the *Graph out of Pass.ResultOf —
// so the graph is built once per package no matter how many passes consume
// it.
//
// The graph is deliberately syntactic and sound only up to Go's static
// call structure:
//
//   - direct calls (f(), pkg.F(), recv.Method()) resolve through
//     go/types, with generic instantiations mapped to their origin
//     function;
//   - `go` and `defer` targets are edges of their own kinds — an
//     interprocedural pass decides whether "runs later / concurrently"
//     counts for its invariant (a deferred call does not run under the
//     caller's lock; a goroutine does not block its spawner);
//   - a method value or function value reference (f := s.method) is a
//     KindRef edge from the enclosing function: the callee may run
//     wherever the value flows, so reference edges over-approximate;
//   - calls through interface methods resolve to the interface method
//     object (not to implementations), and calls through function-typed
//     variables do not resolve at all. Both are soundness limits shared
//     with every static graph without whole-program pointer analysis;
//     DESIGN.md "Interprocedural analysis" records them.
//
// Function literals do not get nodes: a call inside a literal is
// attributed to the enclosing declared function, with the literal's
// launch mode (invoked in place → KindCall, go'd → KindGo, deferred →
// KindDefer, stored → KindRef) as the edge kind, so "may call when
// invoked" stays separable from "may cause to run eventually".
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"bitdew/internal/analysis"
	"bitdew/internal/analysis/astq"
)

// Kind classifies how a call site runs its callee.
type Kind int

const (
	// KindCall is a plain synchronous call: the callee runs to completion
	// inside the caller.
	KindCall Kind = iota
	// KindGo is a `go` statement target: the callee runs concurrently.
	KindGo
	// KindDefer is a `defer` statement target: the callee runs at return.
	KindDefer
	// KindRef is a function or method value reference: the callee runs
	// whenever (and wherever) the value is invoked.
	KindRef
)

func (k Kind) String() string {
	switch k {
	case KindCall:
		return "call"
	case KindGo:
		return "go"
	case KindDefer:
		return "defer"
	case KindRef:
		return "ref"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// An Edge is one resolved call site.
type Edge struct {
	// Caller is the declared function whose body contains the site.
	Caller *types.Func
	// Callee is the resolved static target; for generic functions, the
	// origin (uninstantiated) *types.Func. May belong to another package.
	Callee *types.Func
	// Site positions the call for diagnostics.
	Site token.Pos
	// Kind is the launch mode of the site.
	Kind Kind
}

// A Graph is the static call graph of one package.
type Graph struct {
	pkg   *types.Package
	fset  *token.FileSet
	funcs []*types.Func
	decls map[*types.Func]*ast.FuncDecl
	out   map[*types.Func][]Edge
}

// Funcs lists the functions and methods declared in the package, in
// source order (file name, then position) — the deterministic iteration
// order every consumer should use.
func (g *Graph) Funcs() []*types.Func { return g.funcs }

// Decl returns the declaration of a package function, or nil for foreign
// functions.
func (g *Graph) Decl(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Calls lists the out-edges of fn in site order.
func (g *Graph) Calls(fn *types.Func) []Edge { return g.out[fn] }

// Analyzer builds the package call graph; interprocedural passes list it
// in Requires and read the *Graph from Pass.ResultOf.
var Analyzer = &analysis.Analyzer{
	Name: "callgraph",
	Doc: "build the package's static call graph (internal substrate, reports nothing)\n\n" +
		"Direct calls, go/defer targets and method/function value references, with generic calls " +
		"resolved to their origin; shared by lockorder and deadlineprop via Requires.",
	Run: build,
}

func build(pass *analysis.Pass) (any, error) {
	g := &Graph{
		pkg:   pass.Pkg,
		fset:  pass.Fset,
		decls: make(map[*types.Func]*ast.FuncDecl),
		out:   make(map[*types.Func][]Edge),
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.funcs = append(g.funcs, fn)
			g.decls[fn] = fd
			collectEdges(pass.TypesInfo, g, fn, fd.Body, KindCall)
		}
	}
	sort.Slice(g.funcs, func(i, j int) bool { return g.funcs[i].Pos() < g.funcs[j].Pos() })
	for fn := range g.out {
		edges := g.out[fn]
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Site != edges[j].Site {
				return edges[i].Site < edges[j].Site
			}
			return edges[i].Kind < edges[j].Kind
		})
	}
	return g, nil
}

// collectEdges walks one body, attributing sites to caller. mode is the
// launch kind of the region being walked: the top level of a declared
// function is KindCall territory; a go'd literal's body is KindGo, etc.
// operands tracks the Fun expressions of visited calls so their selectors
// are not double-counted as method values (Inspect visits the call before
// its children).
func collectEdges(info *types.Info, g *Graph, caller *types.Func, body ast.Node, mode Kind) {
	operands := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.GoStmt:
			edgeForCall(info, g, caller, nn.Call, demote(mode, KindGo))
			walkCallArgs(info, g, caller, nn.Call, mode)
			if lit, ok := ast.Unparen(nn.Call.Fun).(*ast.FuncLit); ok {
				collectEdges(info, g, caller, lit.Body, demote(mode, KindGo))
			}
			return false
		case *ast.DeferStmt:
			edgeForCall(info, g, caller, nn.Call, demote(mode, KindDefer))
			walkCallArgs(info, g, caller, nn.Call, mode)
			if lit, ok := ast.Unparen(nn.Call.Fun).(*ast.FuncLit); ok {
				collectEdges(info, g, caller, lit.Body, demote(mode, KindDefer))
			}
			return false
		case *ast.CallExpr:
			edgeForCall(info, g, caller, nn, mode)
			operands[ast.Unparen(nn.Fun)] = true
			if lit, ok := ast.Unparen(nn.Fun).(*ast.FuncLit); ok {
				// Invoked in place: the literal's body runs synchronously.
				collectEdges(info, g, caller, lit.Body, mode)
				walkCallArgs(info, g, caller, nn, mode)
				return false
			}
			return true
		case *ast.FuncLit:
			// A literal that is not the operand of a call/go/defer is a
			// stored value: its future invocations are reference edges.
			collectEdges(info, g, caller, nn.Body, KindRef)
			return false
		case *ast.SelectorExpr:
			// A method value, method expression or qualified function used
			// as a value (s.method, T.Method, pkg.Fn — not invoked here) is
			// a reference edge; call operands were marked by their CallExpr
			// parent.
			if operands[nn] {
				return true
			}
			if fn, ok := info.Uses[nn.Sel].(*types.Func); ok {
				addEdge(g, caller, origin(fn), nn.Pos(), KindRef)
			}
			return true
		}
		return true
	})
}

// walkCallArgs visits the argument expressions of a go/defer/in-place-lit
// call whose Fun was handled separately.
func walkCallArgs(info *types.Info, g *Graph, caller *types.Func, call *ast.CallExpr, mode Kind) {
	for _, a := range call.Args {
		collectEdges(info, g, caller, a, mode)
	}
}

// demote strengthens the launch mode: inside a go'd region everything is
// at best KindGo, etc. KindRef is the weakest (most deferred) mode.
func demote(outer, inner Kind) Kind {
	if outer == KindCall {
		return inner
	}
	if outer == KindRef || inner == KindRef {
		return KindRef
	}
	// go-within-defer, defer-within-go: either way the callee neither
	// blocks the caller nor runs under its locks; KindGo is the closest.
	if outer == inner {
		return outer
	}
	return KindGo
}

// edgeForCall resolves one call expression into an edge, if the callee is
// statically known.
func edgeForCall(info *types.Info, g *Graph, caller *types.Func, call *ast.CallExpr, mode Kind) {
	fn := astq.Callee(info, call)
	if fn == nil {
		return
	}
	addEdge(g, caller, origin(fn), call.Pos(), mode)
}

// origin maps an instantiated generic function to its origin declaration,
// the object facts attach to.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

func addEdge(g *Graph, caller, callee *types.Func, site token.Pos, kind Kind) {
	g.out[caller] = append(g.out[caller], Edge{Caller: caller, Callee: callee, Site: site, Kind: kind})
}

// DOT renders the graph in Graphviz syntax, nodes qualified by package
// base name, edge styles by kind (solid call, dashed go, dotted defer,
// gray ref). bitdew-vet -graph concatenates per-package renderings into
// one digraph body.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  subgraph \"cluster_%s\" {\n    label=%q;\n", g.pkg.Path(), g.pkg.Path())
	for _, fn := range g.funcs {
		fmt.Fprintf(&b, "    %q;\n", nodeName(fn))
	}
	fmt.Fprintf(&b, "  }\n")
	for _, fn := range g.funcs {
		for _, e := range g.out[fn] {
			attr := ""
			switch e.Kind {
			case KindGo:
				attr = " [style=dashed,label=\"go\"]"
			case KindDefer:
				attr = " [style=dotted,label=\"defer\"]"
			case KindRef:
				attr = " [color=gray,label=\"ref\"]"
			}
			fmt.Fprintf(&b, "  %q -> %q%s;\n", nodeName(e.Caller), nodeName(e.Callee), attr)
		}
	}
	return b.String()
}

// nodeName renders a function node as pkg.Recv.Name or pkg.Name.
func nodeName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}
