// Package astq holds the small AST/type query helpers shared by the
// bitdew-vet passes: callee resolution, package identification that works
// both on the real module and on analysistest fixture stubs, the one list
// of calls that block on a peer or the clock, and loop and callee
// rendering helpers.
package astq

import (
	"go/ast"
	"go/types"
	"strings"
)

// Callee resolves the *types.Func a call expression invokes, or nil for
// calls through function values, built-ins and type conversions. Generic
// calls resolve to their origin function.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit instantiation: f[T](...)
		return Callee(info, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr: // f[T1, T2](...)
		return Callee(info, &ast.CallExpr{Fun: fun.X})
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// PkgIs reports whether pkg is the package known by the given base name in
// this module — matching "bitdew/internal/<name>", any path ending in
// "/<name>", or the bare "<name>" itself. The suffix forms let analysistest
// fixtures stand in stub packages (e.g. testdata/src/rpc) for the real
// module-internal ones.
func PkgIs(pkg *types.Package, name string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == name || strings.HasSuffix(path, "/"+name)
}

// IsMethodNamed reports whether fn is a method with one of the given names
// declared in a package matched by PkgIs(pkgName). An empty pkgName skips
// the package test.
func IsMethodNamed(fn *types.Func, pkgName string, names ...string) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if pkgName != "" && !PkgIs(fn.Pkg(), pkgName) {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// IsPkgFunc reports whether fn is the package-level function pkgName.name.
func IsPkgFunc(fn *types.Func, pkgName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return PkgIs(fn.Pkg(), pkgName)
}

// TypeName renders t compactly, qualifying names by package base name.
func TypeName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// FuncLabel renders a callee compactly for diagnostics: Recv.Name for a
// method, pkg.Name for a function.
func FuncLabel(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return TypeName(sig.Recv().Type()) + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// IsUnconditional reports loops of the form `for { ... }` or `for true`.
func IsUnconditional(f *ast.ForStmt) bool {
	if f.Cond == nil {
		return true
	}
	id, ok := ast.Unparen(f.Cond).(*ast.Ident)
	return ok && id.Name == "true"
}

// Blocking classifies a call that waits on a peer or on the clock.
type Blocking int

const (
	NotBlocking Blocking = iota
	// RPCCall is a method named Call or CallBatch (the rpc client
	// surface), or the package function rpc.CallBatch.
	RPCCall
	// RPCDial is any package-level function of package rpc whose name
	// starts with Dial: matching the prefix, not a list, keeps a new dial
	// variant from slipping past every pass that cares.
	RPCDial
	// Sleep is time.Sleep.
	Sleep
	// Socket is a listen or a plain TCP dial outside the rpc client
	// surface: rpc.Listen, net.Dial, net.DialTimeout, net.Listen.
	Socket
)

// BlockingCall classifies the callee fn (nil is NotBlocking) and renders it
// the way diagnostics name it: "rpc Call", "rpc.DialAuto", "net.Dial",
// "time.Sleep".
func BlockingCall(fn *types.Func) (Blocking, string) {
	switch {
	case fn == nil:
		return NotBlocking, ""
	case IsMethodNamed(fn, "", "Call", "CallBatch"):
		return RPCCall, "rpc " + fn.Name()
	case IsPkgFunc(fn, "rpc", "CallBatch"):
		return RPCCall, "rpc.CallBatch"
	case strings.HasPrefix(fn.Name(), "Dial") && IsPkgFunc(fn, "rpc", fn.Name()):
		return RPCDial, "rpc." + fn.Name()
	case IsPkgFunc(fn, "rpc", "Listen"):
		return Socket, "rpc.Listen"
	case IsPkgFunc(fn, "time", "Sleep"):
		return Sleep, "time.Sleep"
	case fn.Pkg() != nil && fn.Pkg().Path() == "net":
		switch fn.Name() {
		case "Dial", "DialTimeout", "Listen":
			return Socket, "net." + fn.Name()
		}
	}
	return NotBlocking, ""
}
