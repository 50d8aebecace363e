// Package deadlines enforces the service plane's timeout discipline, both
// halves of it:
//
//   - at every rpc dial site outside the rpc package itself (any
//     package-level rpc function named Dial*, see astq.BlockingCall), the
//     options must include rpc.WithCallTimeout(...). Without it a request
//     whose response frame never arrives blocks its caller forever: the
//     transport only fails pending calls when the connection breaks, and a
//     hung peer breaks nothing — the paper's transient-fault model makes
//     hung peers a normal operating condition, not an anomaly. A call that
//     forwards its options wholesale (opts...) is left to the site that
//     built them.
//   - RPC-blocking work inside an unbounded `for { ... }` loop must be
//     deadline-bounded, even when the blocking call hides behind helper
//     functions, in this package or another.
//
// Only recognizing *direct* calls to the blocking surface inside the loop
// would let a helper silently escape the gate — and the helpers are
// exactly what the batch-first refactors multiplied (PutAll → fan-out →
// per-shard CallBatch is three frames deep). The loop check therefore
// rides a BlocksOnRPC object fact:
//
//   - a function that directly performs a blocking rpc primitive gets
//     BlocksOnRPC with the primitive as its Via;
//   - a function that (synchronously — callgraph.KindCall edges only; a
//     go'd or deferred call does not block its caller) calls a
//     BlocksOnRPC function inherits the fact with the callee prepended
//     to the chain;
//   - facts serialize between packages in dependency order, so a helper
//     in internal/transfer taints its callers in internal/mw.
//
// An unconditional for-loop with no deadline facility (bounded attempt
// count, time budget, context or stop-channel select, pacing channel
// receive) is flagged if it calls anything that blocks on rpc, directly or
// via the fact. The diagnostic prints the propagation chain so the reader
// can see where the hidden blocking lives.
package deadlines

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bitdew/internal/analysis"
	"bitdew/internal/analysis/astq"
	"bitdew/internal/analysis/callgraph"
)

// BlocksOnRPC marks a function that may block on the rpc surface when
// called: it performs a Call/CallBatch/Dial/Sleep itself or synchronously
// calls a function that does. Via renders the propagation chain down to
// the primitive ("fetchOne → rpc Call").
type BlocksOnRPC struct {
	Via string
}

func (*BlocksOnRPC) AFact() {}

func (f *BlocksOnRPC) String() string { return "BlocksOnRPC(" + f.Via + ")" }

var Analyzer = &analysis.Analyzer{
	Name: "deadlines",
	Doc: "rpc dial sites must arm a per-call deadline, and unbounded retry loops must not block on rpc, even through helpers\n\n" +
		"A peer that stops answering without closing the connection blocks callers forever; a BlocksOnRPC fact " +
		"propagated up the call graph flags a helper-wrapped Call/Dial/Sleep inside a for{} loop with no deadline like a direct one.",
	Requires:  []*analysis.Analyzer{callgraph.Analyzer},
	FactTypes: []analysis.Fact{(*BlocksOnRPC)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (any, error) {
	graph := pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph)

	// Fixpoint over the package's functions: a function blocks if any
	// synchronous call edge reaches a primitive, a local function already
	// known to block, or an imported function carrying the fact. Funcs()
	// is source-ordered, so the chain each function ends up with is
	// deterministic.
	blocks := make(map[*types.Func]string)
	for changed := true; changed; {
		changed = false
		for _, fn := range graph.Funcs() {
			if _, done := blocks[fn]; done {
				continue
			}
			for _, e := range graph.Calls(fn) {
				if e.Kind != callgraph.KindCall {
					continue
				}
				if via := calleeVia(pass, blocks, e.Callee); via != "" {
					blocks[fn] = via
					changed = true
					break
				}
			}
		}
	}
	for _, fn := range graph.Funcs() {
		if via, ok := blocks[fn]; ok {
			pass.ExportObjectFact(fn, &BlocksOnRPC{Via: via})
		}
	}

	inRPC := astq.PkgIs(pass.Pkg, "rpc") // the transport arms its own timers
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.ForStmt:
				if astq.IsUnconditional(nn) {
					checkLoop(pass, blocks, nn)
				}
			case *ast.CallExpr:
				if !inRPC {
					checkDialSite(pass, nn)
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkDialSite flags rpc dial calls missing a WithCallTimeout option.
func checkDialSite(pass *analysis.Pass, call *ast.CallExpr) {
	fn := astq.Callee(pass.TypesInfo, call)
	if kind, _ := astq.BlockingCall(fn); kind != astq.RPCDial || call.Ellipsis.IsValid() {
		return
	}
	for _, arg := range call.Args {
		if opt, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
			if astq.IsPkgFunc(astq.Callee(pass.TypesInfo, opt), "rpc", "WithCallTimeout") {
				return
			}
		}
	}
	pass.Reportf(call.Pos(),
		"rpc.%s without rpc.WithCallTimeout: a peer that stops answering (without closing the connection) blocks callers forever; arm a per-call deadline",
		fn.Name())
}

// calleeVia resolves how calling fn blocks on rpc: "" when it does not.
func calleeVia(pass *analysis.Pass, blocks map[*types.Func]string, fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if p := primitive(fn); p != "" {
		return p
	}
	if fn.Pkg() == pass.Pkg {
		if via, ok := blocks[fn]; ok {
			return chain(fn, via)
		}
		return ""
	}
	var fact BlocksOnRPC
	if pass.ImportObjectFact(fn, &fact) {
		return chain(fn, fact.Via)
	}
	return ""
}

// chain prepends a helper to a via chain, keeping the rendering short:
// long chains elide their middle.
func chain(fn *types.Func, via string) string {
	c := fn.Name() + " → " + via
	if parts := strings.Split(c, " → "); len(parts) > 4 {
		c = strings.Join(parts[:2], " → ") + " → … → " + parts[len(parts)-1]
	}
	return c
}

// primitive renders fn as a directly-blocking rpc surface call for the
// diagnostics ("" when it is not one). A plain socket dial or listen is the
// transport's own business, not the rpc surface.
func primitive(fn *types.Func) string {
	switch kind, what := astq.BlockingCall(fn); kind {
	case astq.RPCCall, astq.RPCDial:
		return what
	case astq.Sleep:
		return what + " polling"
	}
	return ""
}

// checkLoop flags an unconditional loop doing blocking RPC-ish work —
// directly or through BlocksOnRPC helpers — with no deadline facility in
// sight.
func checkLoop(pass *analysis.Pass, blocks map[*types.Func]string, loop *ast.ForStmt) {
	var blocking *ast.CallExpr
	var blockingWhat string
	bounded := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			return false // runs on its own goroutine/schedule
		case *ast.GoStmt, *ast.DeferStmt:
			return false // does not block this loop iteration
		case *ast.SelectStmt:
			// A select with a real receive case is a stop/timeout point.
			for _, c := range nn.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					bounded = true
				}
			}
		case *ast.UnaryExpr:
			// A bare channel receive blocks until signalled — the loop is
			// paced by a channel, not spinning on the network.
			if nn.Op == token.ARROW {
				bounded = true
			}
		case *ast.CallExpr:
			fn := astq.Callee(pass.TypesInfo, nn)
			switch {
			case isDeadlineFunc(fn):
				bounded = true
			case blocking == nil:
				if p := primitive(fn); p != "" {
					blocking, blockingWhat = nn, p
				} else if via := calleeVia(pass, blocks, fn); via != "" {
					blocking = nn
					blockingWhat = fmt.Sprintf("call to %s (blocks on rpc via %s)", astq.FuncLabel(fn), via)
				}
			}
		}
		return true
	})
	if blocking != nil && !bounded {
		pass.Reportf(blocking.Pos(),
			"%s inside an unbounded for-loop with no deadline: bound the retries (attempt budget, time.Now deadline, context or stop-channel select) so a dead peer cannot wedge this goroutine forever",
			blockingWhat)
	}
}

// isDeadlineFunc recognizes the time/context calls that make an infinite
// loop time-bounded or cancellable.
func isDeadlineFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "After", "Since", "Until", "NewTimer":
			return true
		}
	case "context":
		// Covers ctx.Done()/Deadline()/Err() too: methods of the
		// context.Context interface resolve to package context.
		return true
	}
	return false
}
