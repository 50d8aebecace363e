// Package leakygo enforces the goroutine-lifecycle rule of the service
// plane: a goroutine started while constructing or starting a long-lived
// object (New*/Open*/Dial*/Listen*/Start*) must have a reachable exit, so
// the object's Close/Stop path can actually end it.
//
// Every service container, server, store and engine in this module owns
// background goroutines (accept loops, compaction timers, heartbeats,
// transfer monitors); each is tied to a stop channel, a closable
// connection whose read fails, or a bounded piece of work. A goroutine
// whose body loops forever with no return or break can never be joined —
// restart tests then leak one goroutine per restart until the race
// detector or the churn harness trips over it. The analyzer inspects each
// go statement launched (directly or via a same-package method) from a
// constructor-shaped function and reports infinite loops with no exit
// path.
package leakygo

import (
	"go/ast"
	"go/types"
	"strings"

	"bitdew/internal/analysis"
	"bitdew/internal/analysis/astq"
)

var Analyzer = &analysis.Analyzer{
	Name: "leakygo",
	Doc: "goroutines started by constructors must have an exit: no infinite loops without return/break\n\n" +
		"A background goroutine with no reachable exit can never be joined by Close/Stop; " +
		"restart and churn scenarios then leak one goroutine per cycle.",
	Run: run,
}

// constructorPrefixes shape the functions whose goroutines are long-lived
// by construction.
var constructorPrefixes = []string{"New", "Open", "Dial", "Listen", "Start"}

func run(pass *analysis.Pass) (any, error) {
	decls := methodDecls(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isConstructor(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body := goBody(pass, decls, g)
				if body == nil {
					return true
				}
				checkGoroutine(pass, g, body)
				return true
			})
		}
	}
	return nil, nil
}

func isConstructor(name string) bool {
	for _, p := range constructorPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// methodDecls indexes this package's function declarations by their
// types.Func, so `go s.loop()` can be traced into loop's body.
func methodDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// goBody resolves the statement body the go statement will run: a literal
// body, or the declaration of a same-package function/method.
func goBody(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, g *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fn := astq.Callee(pass.TypesInfo, g.Call); fn != nil {
		if fd := decls[fn]; fd != nil {
			return fd.Body
		}
	}
	return nil
}

// checkGoroutine reports infinite loops with no exit inside the goroutine
// body.
func checkGoroutine(pass *analysis.Pass, g *ast.GoStmt, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || !astq.IsUnconditional(loop) {
			return true
		}
		if !hasExit(loop) {
			pass.Reportf(loop.Pos(),
				"goroutine started by a constructor loops forever with no exit: add a stop-channel/context case (or a terminating error return) so Close can end it")
		}
		return true
	})
}

// hasExit reports whether the loop body contains a statement that leaves
// the loop: a return, a break binding to this loop, a labeled break
// (which always targets an enclosing statement — conservatively treated
// as an exit), or a goto. Unlabeled breaks inside nested
// for/range/switch/select statements bind to those and do not count.
func hasExit(loop *ast.ForStmt) bool {
	return blockExits(loop.Body)
}

// blockExits walks stmts looking for an exit of the current loop.
func blockExits(n ast.Node) bool {
	exits := false
	var walk func(n ast.Node, breakable bool)
	walk = func(n ast.Node, breakBindsHere bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if exits {
				return false
			}
			switch mm := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				exits = true
				return false
			case *ast.BranchStmt:
				switch mm.Tok.String() {
				case "break":
					if breakBindsHere && mm.Label == nil {
						exits = true
					}
					if mm.Label != nil {
						exits = true
					}
				case "goto":
					// A goto out of the loop is an exit; assume the
					// programmer aims outside (rare and reviewed).
					exits = true
				}
				return false
			case *ast.ForStmt:
				if m != n {
					walk(mm.Body, false)
					return false
				}
			case *ast.RangeStmt:
				walk(mm.Body, false)
				return false
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				// Unlabeled break inside binds to the switch/select, but a
				// return still exits; keep walking with breaks unbound.
				if m != n {
					walk(bodyOf(mm), false)
					return false
				}
			}
			return true
		})
	}
	walk(n, true)
	return exits
}

// bodyOf returns the block of a switch/select-like statement.
func bodyOf(n ast.Node) ast.Node {
	switch s := n.(type) {
	case *ast.SwitchStmt:
		return s.Body
	case *ast.TypeSwitchStmt:
		return s.Body
	case *ast.SelectStmt:
		return s.Body
	}
	return n
}
