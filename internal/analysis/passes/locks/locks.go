// Package locks checks the service plane's two mutex invariants in one
// walk of every function body's held-lock regions:
//
//   - no blocking work under a lock: a call astq.BlockingCall classifies
//     as blocking (an rpc Call/CallBatch, any rpc dial, rpc.Listen,
//     net.Dial/DialTimeout/Listen, time.Sleep) made while a sync.Mutex or
//     sync.RWMutex is held is reported. The transfer-engine download race
//     was fixed with a singleflight precisely because slow I/O and locks
//     compose badly: a Dial or Call under a struct mutex turns every other
//     method of that struct — Close included — into a hostage of the
//     network. Deliberate disk I/O under a lock (the db WAL, whose ordering
//     guarantee IS the lock) is out of scope: file operations are not
//     blocking calls by this definition.
//   - no cycle in the module-wide lock acquisition-order graph: "lock B
//     was acquired while lock A was held" is an edge, and every cycle in
//     the union graph is a potential deadlock, reported with both
//     acquisition paths.
//
// Locks are classified by declaration site, lockdep-style: a struct field
// mutex is "pkg.Type.field" (every instance of core.ShardSet shares one
// class), a package-level mutex is "pkg.name", a local one is
// "pkg.func.name". Class-level aliasing is deliberate: a cycle between
// two instances of the same class (A.mu → B.mu → A.mu with A, B the same
// type) is exactly the ABBA deadlock worth hearing about, at the price of
// over-approximating self-edges on tree-shaped structures — those carry a
// //vet:ignore with the shape argument.
//
// Three fact flows make the order check whole-plane:
//
//   - Acquires (object fact): the lock classes a function may acquire,
//     transitively through synchronous calls (callgraph.KindCall — a
//     go'd goroutine acquires under its own stack, not the caller's);
//   - LockEdges (package fact): the order edges this package's bodies
//     contribute, each with its acquisition positions;
//   - at each package, the cycle check runs over the union of every
//     LockEdges fact serialized so far (dependency order), and reports
//     only cycles containing an edge local to the current package — so a
//     cross-package cycle is reported exactly once, at the package that
//     closes it.
//
// Held-set tracking is syntactic and branch-local. The held set is keyed
// by receiver expression (s.mu and t.mu are two held locks even when they
// share a class) and each entry carries its class. A Lock/RLock as a
// direct statement enters the set, Unlock/RUnlock leaves it, `defer
// mu.Unlock()` keeps it held for the rest of the body, and nested blocks
// scan with a copy so branch-local lock state never leaks out. Function
// literals are entered in place only when invoked immediately — a
// deferred or go'd literal does not run under the caller's lock — and
// each literal body is also walked on its own, with nothing held. RLock
// shares its Lock's class: recursive read-locking deadlocks against a
// queued writer, so read edges are real edges.
package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"bitdew/internal/analysis"
	"bitdew/internal/analysis/astq"
	"bitdew/internal/analysis/callgraph"
)

// Acquires is the object fact marking the lock classes a function may
// acquire, directly or through synchronous calls.
type Acquires struct {
	Classes []string
}

func (*Acquires) AFact() {}

func (f *Acquires) String() string { return "Acquires(" + strings.Join(f.Classes, ",") + ")" }

// A LockEdge is one observed ordering: To was acquired (or a function
// acquiring it was called) while From was held.
type LockEdge struct {
	From, To string
	// FromPos/ToPos are "file:line" of the two acquisition sites; Via
	// names the callee when the To acquisition happened inside a call.
	FromPos, ToPos string
	Via            string
}

// LockEdges is the package fact carrying the order edges a package
// contributes to the module-wide graph.
type LockEdges struct {
	Edges []LockEdge
}

func (*LockEdges) AFact() {}

func (f *LockEdges) String() string {
	parts := make([]string, len(f.Edges))
	for i, e := range f.Edges {
		parts[i] = e.From + "→" + e.To
	}
	return "LockEdges(" + strings.Join(parts, ",") + ")"
}

var Analyzer = &analysis.Analyzer{
	Name: "locks",
	Doc: "no rpc, dial or sleep while holding a sync.Mutex/RWMutex, and no cycles in the module-wide lock-order graph\n\n" +
		"A blocking network operation under a lock makes every other method of the guarded struct wait out " +
		"the network; lock-order edges from the same held sets, propagated through the call graph and across " +
		"packages via facts, expose potential deadlocks, each reported once with both acquisition paths.",
	Requires:  []*analysis.Analyzer{callgraph.Analyzer},
	FactTypes: []analysis.Fact{(*Acquires)(nil), (*LockEdges)(nil)},
	Run:       run,
}

// localEdge is a LockEdge still carrying its reportable position.
type localEdge struct {
	LockEdge
	pos token.Pos
}

func run(pass *analysis.Pass) (any, error) {
	graph := pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph)

	// Pass 1: the transitive Acquires set of every local function.
	acq := acquiresFixpoint(pass, graph)
	for _, fn := range graph.Funcs() {
		if classes := acq[fn]; len(classes) > 0 {
			pass.ExportObjectFact(fn, &Acquires{Classes: classes})
		}
	}

	// Pass 2: one held-set walk of every function body and function
	// literal reports blocking calls and collects order edges.
	s := &scanner{pass: pass, acq: acq}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			s.fnName = ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				s.fnName = fd.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch nn := n.(type) {
				case *ast.FuncDecl:
					if nn.Body != nil {
						s.scanStmts(nn.Body.List, map[string]heldLock{})
					}
				case *ast.FuncLit:
					s.scanStmts(nn.Body.List, map[string]heldLock{})
				}
				return true
			})
		}
	}
	edges := s.edges
	// Deterministic fact and report order regardless of held-map
	// iteration order during the scan: the earliest acquisition stands
	// for each (From, To) pair.
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.FromPos < b.FromPos
	})
	edges = dedupe(edges)
	if len(edges) > 0 {
		fact := &LockEdges{}
		for _, e := range edges {
			fact.Edges = append(fact.Edges, e.LockEdge)
		}
		pass.ExportPackageFact(fact)
	}

	// Pass 3: cycle check over the union of every package's edges
	// serialized so far plus this package's own.
	reportCycles(pass, edges)
	return nil, nil
}

// heldLock records one held lock's class and where it was acquired.
type heldLock struct {
	class string
	pos   token.Pos
}

// acquiresFixpoint computes each local function's transitive acquire set:
// direct Lock/RLock sites (outside go/defer regions) plus the sets of
// synchronously-called functions, local or imported.
func acquiresFixpoint(pass *analysis.Pass, graph *callgraph.Graph) map[*types.Func][]string {
	full := make(map[*types.Func]map[string]bool)
	for _, fn := range graph.Funcs() {
		set := make(map[string]bool)
		ast.Inspect(graph.Decl(fn).Body, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.GoStmt, *ast.DeferStmt:
				return false // acquired under another stack / at return
			case *ast.CallExpr:
				if recv, name := lockMethod(pass.TypesInfo, nn); name == "Lock" || name == "RLock" {
					set[lockClass(pass, recv, fn.Name())] = true
				}
			}
			return true
		})
		full[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range graph.Funcs() {
			for _, e := range graph.Calls(fn) {
				if e.Kind != callgraph.KindCall {
					continue
				}
				for _, c := range calleeAcquires(pass, full, e.Callee) {
					if !full[fn][c] {
						full[fn][c] = true
						changed = true
					}
				}
			}
		}
	}
	out := make(map[*types.Func][]string, len(full))
	for fn, set := range full {
		out[fn] = sortedKeys(set)
	}
	return out
}

// calleeAcquires resolves the acquire set of a callee: local functions
// from the in-progress fixpoint, imported ones from their fact.
func calleeAcquires(pass *analysis.Pass, full map[*types.Func]map[string]bool, fn *types.Func) []string {
	if fn == nil {
		return nil
	}
	if fn.Pkg() == pass.Pkg {
		return sortedKeys(full[fn])
	}
	var fact Acquires
	if pass.ImportObjectFact(fn, &fact) {
		return fact.Classes
	}
	return nil
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// scanner walks function bodies tracking the held set, reporting blocking
// calls and collecting order edges.
type scanner struct {
	pass  *analysis.Pass
	acq   map[*types.Func][]string
	edges []localEdge
	// fnName is the enclosing declared function, naming local lock
	// classes.
	fnName string
}

func (s *scanner) scanStmts(stmts []ast.Stmt, held map[string]heldLock) {
	for _, st := range stmts {
		switch stt := st.(type) {
		case *ast.ExprStmt:
			if call, ok := stt.X.(*ast.CallExpr); ok {
				if recv, name := lockMethod(s.pass.TypesInfo, call); name != "" {
					key := types.ExprString(recv)
					switch name {
					case "Lock", "RLock":
						class := lockClass(s.pass, recv, s.fnName)
						s.acquire(held, class, call.Pos(), "")
						held[key] = heldLock{class: class, pos: call.Pos()}
					case "Unlock", "RUnlock":
						delete(held, key)
					}
					continue
				}
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held for the remainder —
			// exactly the region being scanned — so it does not release.
			// Other deferred work runs at return, outside any region this
			// scan can reason about.
			continue
		case *ast.GoStmt:
			// The goroutine body does not run under the caller's locks.
			continue
		}
		if len(held) > 0 {
			s.callsUnderHeld(st, held)
		}
		for _, inner := range innerBlocks(st) {
			s.scanStmts(inner, maps.Clone(held))
		}
	}
}

// callsUnderHeld checks the calls appearing directly in st (nested
// statement lists are scanned with their own held copies): a blocking one
// is reported, and one whose callee acquires locks adds order edges.
func (s *scanner) callsUnderHeld(st ast.Stmt, held map[string]heldLock) {
	shallowInspect(st, func(call *ast.CallExpr) {
		// Direct Lock/RLock in expression position (rare) — treat as an
		// acquisition edge without entering the held set.
		if recv, name := lockMethod(s.pass.TypesInfo, call); name == "Lock" || name == "RLock" {
			s.acquire(held, lockClass(s.pass, recv, s.fnName), call.Pos(), "")
			return
		}
		fn := astq.Callee(s.pass.TypesInfo, call)
		if fn == nil {
			return
		}
		if kind, what := astq.BlockingCall(fn); kind != astq.NotBlocking {
			s.pass.Reportf(call.Pos(),
				"%s while holding %s: blocking network work under a mutex wedges every contender (move the call outside the critical section)",
				what, innermost(held))
		}
		for _, class := range s.calleeClasses(fn) {
			s.acquire(held, class, call.Pos(), astq.FuncLabel(fn))
		}
	})
}

// innermost names the most recently acquired of the held locks.
func innermost(held map[string]heldLock) string {
	var recv string
	var at token.Pos
	for r, h := range held {
		if h.pos > at {
			recv, at = r, h.pos
		}
	}
	return recv
}

func (s *scanner) calleeClasses(fn *types.Func) []string {
	if fn.Pkg() == s.pass.Pkg {
		return s.acq[fn]
	}
	var fact Acquires
	if s.pass.ImportObjectFact(fn, &fact) {
		return fact.Classes
	}
	return nil
}

// acquire records an edge from every held lock to class, acquired at
// pos (inside a call to via, when via is set).
func (s *scanner) acquire(held map[string]heldLock, class string, pos token.Pos, via string) {
	for _, h := range held {
		s.edges = append(s.edges, localEdge{
			LockEdge: LockEdge{
				From:    h.class,
				To:      class,
				FromPos: posString(s.pass.Fset, h.pos),
				ToPos:   posString(s.pass.Fset, pos),
				Via:     via,
			},
			pos: pos,
		})
	}
}

func posString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// dedupe keeps the first edge per (From, To) pair.
func dedupe(edges []localEdge) []localEdge {
	seen := make(map[[2]string]bool, len(edges))
	out := edges[:0]
	for _, e := range edges {
		key := [2]string{e.From, e.To}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, e)
	}
	return out
}

// reportCycles searches the union graph (every serialized LockEdges fact
// plus this package's local edges) for cycles through a local edge and
// reports each distinct cycle once.
func reportCycles(pass *analysis.Pass, local []localEdge) {
	adj := make(map[string][]LockEdge)
	add := func(e LockEdge) {
		adj[e.From] = append(adj[e.From], e)
	}
	for _, pf := range pass.AllPackageFacts() {
		if f, ok := pf.Fact.(*LockEdges); ok && pf.Package != pass.Pkg {
			for _, e := range f.Edges {
				add(e)
			}
		}
	}
	for _, e := range local {
		add(e.LockEdge)
	}
	for from := range adj {
		es := adj[from]
		sort.Slice(es, func(i, j int) bool {
			if es[i].To != es[j].To {
				return es[i].To < es[j].To
			}
			if es[i].ToPos != es[j].ToPos {
				return es[i].ToPos < es[j].ToPos
			}
			return es[i].FromPos < es[j].FromPos
		})
	}

	reported := make(map[string]bool)
	for _, e := range local {
		path := shortestPath(adj, e.To, e.From)
		if path == nil {
			continue
		}
		cycle := append([]LockEdge{e.LockEdge}, path...)
		key := cycleKey(cycle)
		if reported[key] {
			continue
		}
		reported[key] = true
		pass.Reportf(e.pos, "lock order cycle (potential deadlock): %s — acquire these locks in one global order or break the cycle",
			renderCycle(cycle))
	}
}

// shortestPath BFSes from one class to another over the union adjacency,
// returning the edge path ([] when from == to, nil when unreachable).
func shortestPath(adj map[string][]LockEdge, from, to string) []LockEdge {
	if from == to {
		return []LockEdge{}
	}
	type queued struct {
		class string
		path  []LockEdge
	}
	visited := map[string]bool{from: true}
	queue := []queued{{class: from}}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, e := range adj[q.class] {
			if visited[e.To] {
				continue
			}
			next := append(append([]LockEdge{}, q.path...), e)
			if e.To == to {
				return next
			}
			visited[e.To] = true
			queue = append(queue, queued{class: e.To, path: next})
		}
	}
	return nil
}

// cycleKey canonicalizes a cycle by its sorted class set.
func cycleKey(cycle []LockEdge) string {
	classes := make([]string, 0, len(cycle))
	for _, e := range cycle {
		classes = append(classes, e.From)
	}
	sort.Strings(classes)
	return strings.Join(classes, "|")
}

// renderCycle prints every edge with both acquisition positions.
func renderCycle(cycle []LockEdge) string {
	parts := make([]string, len(cycle))
	for i, e := range cycle {
		via := ""
		if e.Via != "" {
			via = fmt.Sprintf(" via call to %s", e.Via)
		}
		parts[i] = fmt.Sprintf("%s (held at %s) → %s (acquired at %s%s)", e.From, e.FromPos, e.To, e.ToPos, via)
	}
	return strings.Join(parts, "; ")
}

// lockMethod classifies a call as a sync lock-surface method, returning
// the receiver expression and method name.
func lockMethod(info *types.Info, call *ast.CallExpr) (recv ast.Expr, name string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return sel.X, fn.Name()
	}
	return nil, ""
}

// lockClass names the lock's declaration-site class: "pkg.Type.field" for
// struct field mutexes, "pkg.name" for package-level ones, and
// "pkg.func.name" for locals. fnName disambiguates locals of different
// functions.
func lockClass(pass *analysis.Pass, recv ast.Expr, fnName string) string {
	recv = ast.Unparen(recv)
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok {
			t := sel.Recv()
			for {
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
					continue
				}
				break
			}
			if named, ok := t.(*types.Named); ok {
				obj := named.Origin().Obj()
				return pkgPath(obj.Pkg()) + "." + obj.Name() + "." + e.Sel.Name
			}
		}
		if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			return pkgPath(v.Pkg()) + "." + v.Name()
		}
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return pkgPath(v.Pkg()) + "." + v.Name()
			}
			return pkgPath(v.Pkg()) + "." + fnName + "." + v.Name()
		}
	}
	return pkgPath(pass.Pkg) + "." + types.ExprString(recv)
}

func pkgPath(pkg *types.Package) string {
	if pkg == nil {
		return "<builtin>"
	}
	return pkg.Path()
}

// innerBlocks lists the nested statement lists of a compound statement.
func innerBlocks(s ast.Stmt) [][]ast.Stmt {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{st.List}
	case *ast.IfStmt:
		out := [][]ast.Stmt{st.Body.List}
		if st.Else != nil {
			out = append(out, []ast.Stmt{st.Else})
		}
		return out
	case *ast.ForStmt:
		return [][]ast.Stmt{st.Body.List}
	case *ast.RangeStmt:
		return [][]ast.Stmt{st.Body.List}
	case *ast.SwitchStmt:
		return clauses(st.Body)
	case *ast.TypeSwitchStmt:
		return clauses(st.Body)
	case *ast.SelectStmt:
		return clauses(st.Body)
	case *ast.LabeledStmt:
		return [][]ast.Stmt{{st.Stmt}}
	}
	return nil
}

func clauses(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			out = append(out, cc.Body)
		case *ast.CommClause:
			out = append(out, cc.Body)
		}
	}
	return out
}

// shallowInspect visits call expressions in the statement's expression
// trees, descending into nested statements only through expressions, and
// into function literals only when they are invoked in place.
func shallowInspect(s ast.Stmt, visit func(*ast.CallExpr)) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			// Nested statement lists get their own scan with copied state.
			return false
		case *ast.GoStmt, *ast.DeferStmt, *ast.FuncLit:
			// A literal is entered only via the CallExpr case below, when
			// it is invoked immediately.
			return false
		case *ast.CallExpr:
			visit(nn)
			if lit, ok := ast.Unparen(nn.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok {
						visit(c)
					}
					return true
				})
			}
		}
		return true
	})
}
