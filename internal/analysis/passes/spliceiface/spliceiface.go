// Package spliceiface enforces the format gate of the splice pools
// (internal/codec): a type used as an rpc payload or stored as a row must
// not reach an interface-, channel- or func-typed component.
//
// The splice fast path caches a type's gob definition prefix and reuses
// warm encoder streams; a payload with a reachable interface field could
// introduce a new dynamic type mid-stream, so codec demotes such types
// to the fresh (slow) path at runtime — silently. PR 4's allocation budget
// (20→2 allocs per encode) therefore regresses without any test failing if
// someone adds an interface field to a payload struct. This analyzer turns
// the runtime demotion into a compile-time finding at every payload
// declaration site: rpc.Register type arguments, rpc.NewCall arguments,
// args/reply expressions of Client.Call, and the value codec.Marshal and
// codec.Unmarshal are handed (stored rows).
package spliceiface

import (
	"go/ast"
	"go/types"

	"bitdew/internal/analysis"
	"bitdew/internal/analysis/astq"
)

var Analyzer = &analysis.Analyzer{
	Name: "spliceiface",
	Doc: "rpc payload and stored row types must stay splice-safe: no reachable interface, channel or func components\n\n" +
		"Flags rpc.Register instantiations and Call/NewCall/codec.Marshal/codec.Unmarshal argument types that the " +
		"splice pool (internal/codec) would demote to the allocation-heavy fresh path at runtime.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := astq.Callee(pass.TypesInfo, call)
			switch {
			case astq.IsPkgFunc(fn, "rpc", "Register"):
				checkRegister(pass, call)
			case astq.IsPkgFunc(fn, "rpc", "NewCall") && len(call.Args) == 4:
				checkPayloadExpr(pass, call.Args[2], "rpc args")
				checkPayloadExpr(pass, call.Args[3], "rpc reply")
			case astq.IsMethodNamed(fn, "rpc", "Call") && len(call.Args) == 4:
				checkPayloadExpr(pass, call.Args[2], "rpc args")
				checkPayloadExpr(pass, call.Args[3], "rpc reply")
			case astq.IsPkgFunc(fn, "codec", "Marshal") && len(call.Args) == 1:
				checkPayloadExpr(pass, call.Args[0], "codec blob")
			case astq.IsPkgFunc(fn, "codec", "Unmarshal") && len(call.Args) == 2:
				checkPayloadExpr(pass, call.Args[1], "codec blob")
			}
			return true
		})
	}
	return nil, nil
}

// checkRegister validates both type arguments of an rpc.Register[A, R]
// instantiation.
func checkRegister(pass *analysis.Pass, call *ast.CallExpr) {
	id := registerIdent(call)
	if id == nil {
		return
	}
	inst, ok := pass.TypesInfo.Instances[id]
	if !ok || inst.TypeArgs == nil {
		return
	}
	roles := [...]string{"rpc args", "rpc reply"}
	for i := 0; i < inst.TypeArgs.Len() && i < len(roles); i++ {
		t := inst.TypeArgs.At(i)
		if p := astq.InterfacePath(t); p != "" {
			pass.Reportf(call.Pos(),
				"%s type %s reaches interface-typed component at %s: it will never take the splice fast path (internal/codec); use concrete field types",
				roles[i], astq.TypeName(t), p)
		}
	}
}

// registerIdent digs the Register identifier out of the (possibly
// explicitly instantiated) call expression.
func registerIdent(call *ast.CallExpr) *ast.Ident {
	fun := ast.Unparen(call.Fun)
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(e.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(e.X)
	}
	switch e := fun.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// checkPayloadExpr validates the static type of one args/reply expression.
// Expressions whose static type is itself an interface (an any-typed
// variable, an untyped nil) carry no concrete payload type to check and are
// skipped; pointers are dereferenced since Call sends the pointed-to value.
func checkPayloadExpr(pass *analysis.Pass, e ast.Expr, role string) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch t.Underlying().(type) {
	case *types.Interface, *types.Basic:
		return
	}
	if p := astq.InterfacePath(t); p != "" {
		pass.Reportf(e.Pos(),
			"%s type %s reaches interface-typed component at %s: it will never take the splice fast path (internal/codec); use concrete field types",
			role, astq.TypeName(t), p)
	}
}
