// Package errlost enforces the batch-error contract of the request path:
// a CallBatch never collapses per-call errors (each Call carries its own
// Err), so callers must actually look at them — and the frame-level error
// of a batch, or of a batch-first endpoint like PutAll, must not be
// dropped on the floor.
//
// Three rules:
//
//  1. The result of CallBatch must not be discarded (expression statement
//     or assignment to _): that error is the transport-level failure of
//     the whole frame.
//
//  2. When the calls slice handed to CallBatch is a local variable, the
//     function must examine it after the call — rpc.FirstError(calls), a
//     range over the per-call Err fields, or forwarding the slice on.
//     Building a batch, shipping it and never reading a reply or error is
//     the bug class batching made possible: every per-call failure
//     vanishes silently.
//
//  3. Errors returned by the batch-first endpoints (PutAll, FetchAll,
//     SubmitAll, ScheduleAll, RegisterBatch, AddLocatorBatch,
//     LocatorsBatch, CreateDataBatch) must not be discarded
//     either — these aggregate many data movements; dropping one error
//     drops N failures.
//
// Deliberately best-effort sites (rollback, delete-everywhere) carry a
// //vet:ignore errlost suppression with the design reason.
package errlost

import (
	"go/ast"
	"go/types"

	"bitdew/internal/analysis"
	"bitdew/internal/analysis/astq"
)

var Analyzer = &analysis.Analyzer{
	Name: "errlost",
	Doc: "batch errors must be checked: CallBatch results, per-call Err fields and batch-endpoint errors cannot be dropped\n\n" +
		"Per-item error slices are the batch path's contract; a dropped one silently loses N failures.",
	Run: run,
}

// batchEndpoints are the batch-first API methods whose error aggregates
// many per-datum outcomes.
var batchEndpoints = map[string]bool{
	"PutAll": true, "FetchAll": true, "SubmitAll": true, "ScheduleAll": true,
	"RegisterBatch": true, "AddLocatorBatch": true, "LocatorsBatch": true,
	"CreateDataBatch": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkFunc(pass, fd)
			return true
		})
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := astq.Callee(pass.TypesInfo, call)
		isBatch := astq.IsMethodNamed(fn, "", "CallBatch") || astq.IsPkgFunc(fn, "rpc", "CallBatch")
		if !isBatch {
			if fn != nil && fn.Type() != nil && isDroppedErrorCall(pass, fd, call) &&
				(astq.IsMethodNamed(fn, "", keys(batchEndpoints)...) && returnsError(fn)) {
				pass.Reportf(call.Pos(),
					"error of batch endpoint %s dropped: it aggregates per-datum failures — check it or suppress with a reason",
					fn.Name())
			}
			return true
		}
		if isDroppedErrorCall(pass, fd, call) {
			pass.Reportf(call.Pos(),
				"result of %s discarded: the frame-level transport error is lost — check it (and the per-call Err fields) or suppress with a reason",
				fn.Name())
			return true
		}
		checkPerCallErrs(pass, fd, call, fn)
		return true
	})
}

// keys flattens the endpoint set for IsMethodNamed.
func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

// isDroppedErrorCall reports whether the call's results are discarded: the
// call is a bare expression statement, or every assigned destination is
// the blank identifier.
func isDroppedErrorCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) bool {
	parent := parentStmt(fd.Body, call)
	switch p := parent.(type) {
	case *ast.ExprStmt:
		return ast.Unparen(p.X) == call
	case *ast.AssignStmt:
		if len(p.Rhs) != 1 || ast.Unparen(p.Rhs[0]) != call {
			return false
		}
		for _, lhs := range p.Lhs {
			if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
				return false
			}
		}
		return true
	case *ast.GoStmt, *ast.DeferStmt:
		return true
	}
	return false
}

// parentStmt finds the innermost statement containing the call.
func parentStmt(body *ast.BlockStmt, call *ast.CallExpr) ast.Stmt {
	var found ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || n.Pos() > call.Pos() || n.End() < call.End() {
			return false
		}
		if s, ok := n.(ast.Stmt); ok {
			switch s.(type) {
			case *ast.ExprStmt, *ast.AssignStmt, *ast.GoStmt, *ast.DeferStmt, *ast.ReturnStmt, *ast.IfStmt:
				found = s
			}
		}
		return true
	})
	return found
}

// checkPerCallErrs applies rule 2: a locally-built calls slice must be
// examined after the batch ships.
func checkPerCallErrs(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, fn *types.Func) {
	// The calls argument: last arg of either form (method CallBatch(calls)
	// or package rpc.CallBatch(client, calls)).
	if len(call.Args) == 0 {
		return
	}
	arg, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[arg]
	if obj == nil || !objDeclaredIn(obj, fd) {
		return // parameter or package-level: the caller owns the check
	}
	used := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id == arg || id.Pos() <= call.End() {
			return true
		}
		if pass.TypesInfo.Uses[id] == obj {
			used = true
		}
		return true
	})
	if !used {
		pass.Reportf(call.Pos(),
			"per-call errors of %s never examined: %s is not used after the batch ships — check each Call.Err (or rpc.FirstError) or suppress with a reason",
			fn.Name(), arg.Name)
	}
}

// objDeclaredIn reports whether obj's declaration lies inside fd's body —
// parameters (declared in the signature) don't count: a batch received
// from the caller is the caller's to check.
func objDeclaredIn(obj types.Object, fd *ast.FuncDecl) bool {
	return fd.Body != nil && obj.Pos() >= fd.Body.Pos() && obj.Pos() <= fd.Body.End()
}
