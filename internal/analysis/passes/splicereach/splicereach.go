// Package splicereach extends the wire-format gate of spliceiface across
// function and package boundaries: a value that *reaches* an rpc payload
// position through helpers, or a payload type instantiated far from its
// Register site, must still be splice-safe (no reachable interface,
// channel or func component — the condition for the splice fast path of
// internal/codec).
//
// spliceiface checks the literal Register/NewCall/Call sites; it is blind
// to two interprocedural escapes this pass closes with facts:
//
//   - Helper-wrapped sends. `func Send[T any](c rpc.Client, v T)` that
//     forwards v into c.Call's args position makes every Send call site a
//     payload site, in whatever package. The CarriesPayload object fact
//     marks such functions (parameter indexes whose payload type is
//     decided by the caller — type-parameter- or interface-typed ones),
//     propagated through forwarding chains; each call site then checks
//     the concrete argument type. Parameters with concrete declared
//     types need no fact: the helper's own body is a checkable payload
//     site for them (spliceiface's job).
//
//   - Cross-package construction of generic payload types. A generic
//     type registered as Envelope[Small] in its home package may be
//     constructed as Envelope[Unsafe] by any importer; the registered
//     origin carries the SpliceSafe type-fact (exported at
//     Register/NewCall/Call sites for types declared in the analyzed
//     package), and every composite literal of an instantiation is
//     checked against it. Non-generic payload types are spliceiface's
//     business at the declaration-side sites; splicereach only judges
//     instantiations, where the type argument is new information.
//
// Soundness limits (DESIGN.md "Interprocedural analysis"): payload types
// registered from a package that does not declare them cannot carry the
// fact (facts attach only to own objects, x/tools rule), and values that
// flow through non-parameter channels (struct fields, globals) are not
// tracked.
package splicereach

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"

	"bitdew/internal/analysis"
	"bitdew/internal/analysis/astq"
	"bitdew/internal/analysis/callgraph"
)

// CarriesPayload marks a function that forwards the listed parameters
// (0-based, receiver excluded) into rpc payload positions — directly into
// Call/NewCall args/reply or through another payload carrier. Only
// caller-typed parameters (type parameters, interfaces) are listed.
type CarriesPayload struct {
	Params []int
}

func (*CarriesPayload) AFact() {}

func (f *CarriesPayload) String() string { return fmt.Sprintf("CarriesPayload(%v)", f.Params) }

// SpliceSafe marks a named type observed in an rpc payload position (so
// it is — and must stay — splice-safe); At records the observing site.
// Constructions of generic instantiations are checked against it.
type SpliceSafe struct {
	At string
}

func (*SpliceSafe) AFact() {}

func (f *SpliceSafe) String() string { return "SpliceSafe(" + f.At + ")" }

var Analyzer = &analysis.Analyzer{
	Name: "splicereach",
	Doc: "rpc payloads must stay splice-safe through helpers and cross-package generic instantiation\n\n" +
		"Propagates CarriesPayload facts up forwarding chains and SpliceSafe facts onto registered " +
		"payload types, then checks helper call sites and generic constructions everywhere.",
	Requires:  []*analysis.Analyzer{callgraph.Analyzer},
	FactTypes: []analysis.Fact{(*CarriesPayload)(nil), (*SpliceSafe)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (any, error) {
	if astq.PkgIs(pass.Pkg, "rpc") {
		// The transport itself juggles any-typed payloads by design; its
		// payloads are gated by codec's TestSpliceMatchesFreshEncoder instead.
		return nil, nil
	}
	graph := pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph)

	carriers := carrierFixpoint(pass, graph)
	for _, fn := range graph.Funcs() {
		if params := carriers[fn]; len(params) > 0 {
			pass.ExportObjectFact(fn, &CarriesPayload{Params: params})
		}
	}
	exportPayloadTypes(pass)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.CallExpr:
				checkCarrierCallSite(pass, carriers, nn)
			case *ast.CompositeLit:
				checkConstruction(pass, nn)
			}
			return true
		})
	}
	return nil, nil
}

// carrierFixpoint finds, for each local function, the caller-typed
// parameters that flow into payload positions — directly or through other
// carriers (local via the fixpoint, imported via facts).
func carrierFixpoint(pass *analysis.Pass, graph *callgraph.Graph) map[*types.Func][]int {
	out := make(map[*types.Func]map[int]bool)
	for _, fn := range graph.Funcs() {
		out[fn] = make(map[int]bool)
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range graph.Funcs() {
			decl := graph.Decl(fn)
			if decl == nil || decl.Body == nil {
				continue
			}
			params := paramObjects(fn)
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, pos := range payloadArgPositions(pass, out, call) {
					if pos >= len(call.Args) {
						continue
					}
					id, ok := ast.Unparen(call.Args[pos]).(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.TypesInfo.Uses[id]
					for i, p := range params {
						if obj == p && callerTyped(p.Type()) && !out[fn][i] {
							out[fn][i] = true
							changed = true
						}
					}
				}
				return true
			})
		}
	}
	result := make(map[*types.Func][]int, len(out))
	for fn, set := range out {
		idxs := make([]int, 0, len(set))
		for i := range set {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		result[fn] = idxs
	}
	return result
}

// payloadArgPositions lists the argument indexes of call that are payload
// positions: args/reply of NewCall and Client.Call, or the carrier
// parameters of a known payload-forwarding callee.
func payloadArgPositions(pass *analysis.Pass, local map[*types.Func]map[int]bool, call *ast.CallExpr) []int {
	fn := astq.Callee(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	switch {
	case astq.IsPkgFunc(fn, "rpc", "NewCall") && len(call.Args) == 4:
		return []int{2, 3}
	case astq.IsMethodNamed(fn, "rpc", "Call") && len(call.Args) == 4:
		return []int{2, 3}
	}
	if fn.Pkg() == pass.Pkg {
		if set, ok := local[fn]; ok && len(set) > 0 {
			idxs := make([]int, 0, len(set))
			for i := range set {
				idxs = append(idxs, i)
			}
			sort.Ints(idxs)
			return idxs
		}
		return nil
	}
	var fact CarriesPayload
	if pass.ImportObjectFact(fn, &fact) {
		return fact.Params
	}
	return nil
}

// paramObjects lists the parameter objects of fn in declaration order
// (receiver excluded).
func paramObjects(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make([]*types.Var, sig.Params().Len())
	for i := range out {
		out[i] = sig.Params().At(i)
	}
	return out
}

// callerTyped reports whether a parameter's payload type is decided at
// the call site: its type is (or contains) a type parameter, or is an
// interface. Concrete parameters are checkable inside the helper itself.
func callerTyped(t types.Type) bool {
	return openType(t, make(map[types.Type]bool))
}

func openType(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Named:
		args := u.TypeArgs()
		for i := 0; i < args.Len(); i++ {
			if openType(args.At(i), seen) {
				return true
			}
		}
		return openType(u.Underlying(), seen)
	}
	switch u := t.Underlying().(type) {
	case *types.Interface:
		return true
	case *types.Pointer:
		return openType(u.Elem(), seen)
	case *types.Slice:
		return openType(u.Elem(), seen)
	case *types.Array:
		return openType(u.Elem(), seen)
	case *types.Map:
		return openType(u.Key(), seen) || openType(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if openType(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// exportPayloadTypes attaches the SpliceSafe fact to every named type
// declared in this package that appears in a payload position here:
// Register type arguments and the static types of NewCall/Call args.
func exportPayloadTypes(pass *analysis.Pass) {
	seen := make(map[*types.TypeName]bool)
	export := func(t types.Type, site ast.Node) {
		tn := namedOrigin(t)
		if tn == nil || tn.Pkg() != pass.Pkg || seen[tn] {
			return
		}
		seen[tn] = true
		p := pass.Fset.Position(site.Pos())
		pass.ExportObjectFact(tn, &SpliceSafe{At: fmt.Sprintf("%s:%d", p.Filename, p.Line)})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := astq.Callee(pass.TypesInfo, call)
			switch {
			case astq.IsPkgFunc(fn, "rpc", "Register"):
				if id := calleeIdent(call); id != nil {
					if inst, ok := pass.TypesInfo.Instances[id]; ok && inst.TypeArgs != nil {
						for i := 0; i < inst.TypeArgs.Len(); i++ {
							export(inst.TypeArgs.At(i), call)
						}
					}
				}
			case astq.IsPkgFunc(fn, "rpc", "NewCall") && len(call.Args) == 4,
				astq.IsMethodNamed(fn, "rpc", "Call") && len(call.Args) == 4:
				for _, arg := range call.Args[2:4] {
					if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Type != nil {
						t := tv.Type
						if ptr, ok := t.Underlying().(*types.Pointer); ok {
							t = ptr.Elem()
						}
						export(t, call)
					}
				}
			}
			return true
		})
	}
}

// checkCarrierCallSite validates the concrete argument types at a call to
// a payload-forwarding function.
func checkCarrierCallSite(pass *analysis.Pass, carriers map[*types.Func][]int, call *ast.CallExpr) {
	fn := astq.Callee(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	var params []int
	if fn.Pkg() == pass.Pkg {
		// Local carrier: the fixpoint's view (facts would say the same).
		params = carriers[fn]
	} else {
		var fact CarriesPayload
		if !pass.ImportObjectFact(fn, &fact) {
			return
		}
		params = fact.Params
	}
	for _, idx := range params {
		if idx >= len(call.Args) {
			continue
		}
		arg := call.Args[idx]
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		t := tv.Type
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		switch t.Underlying().(type) {
		case *types.Interface, *types.Basic, *types.TypeParam:
			continue // no concrete payload type to judge here
		}
		if _, ok := t.(*types.TypeParam); ok {
			continue // generic forwarding: this caller's callers are checked
		}
		if p := astq.InterfacePath(t); p != "" {
			pass.Reportf(arg.Pos(),
				"rpc payload through %s (parameter %d): type %s reaches interface-typed component at %s: it will never take the splice fast path (internal/codec); use concrete field types",
				funcLabel(fn), idx, astq.TypeName(t), p)
		}
	}
}

// checkConstruction validates a composite literal of an instantiated
// generic payload type.
func checkConstruction(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	named, ok := t.(*types.Named)
	if !ok || named.TypeArgs() == nil || named.TypeArgs().Len() == 0 {
		return // only instantiations carry call-site-new information
	}
	tn := named.Origin().Obj()
	var fact SpliceSafe
	if !pass.ImportObjectFact(tn, &fact) {
		return
	}
	if p := astq.InterfacePath(t); p != "" {
		pass.Reportf(lit.Pos(),
			"construction of rpc payload type %s reaches interface-typed component at %s (payload type registered splice-safe at %s): it will never take the splice fast path (internal/codec); use concrete type arguments",
			astq.TypeName(t), p, fact.At)
	}
}

// namedOrigin resolves a type to its origin *types.TypeName, or nil for
// unnamed types.
func namedOrigin(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Origin().Obj()
}

// calleeIdent digs the callee identifier out of a (possibly explicitly
// instantiated) call expression.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
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

// funcLabel renders a callee compactly for diagnostics.
func funcLabel(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return astq.TypeName(sig.Recv().Type()) + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
