// Package astq holds the small AST/type query helpers shared by the
// bitdew-vet passes: callee resolution, package identification that works
// both on the real module and on analysistest fixture stubs, and reach
// analysis over types.
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
