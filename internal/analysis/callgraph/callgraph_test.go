package callgraph_test

import (
	"fmt"
	"go/types"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"bitdew/internal/analysis"
	"bitdew/internal/analysis/callgraph"
	"bitdew/internal/analysis/load"
)

// buildFixtureGraph analyzes the fixture package with a fresh loader and
// returns its call graph.
func buildFixtureGraph(t *testing.T) *callgraph.Graph {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	dir := filepath.Dir(file)
	root := filepath.Clean(filepath.Join(dir, "..", "..", ".."))
	l, err := load.New(root, filepath.Join(dir, "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := l.Analyze([]*analysis.Analyzer{callgraph.Analyzer}, []string{"callgraph"})
	if err != nil {
		t.Fatal(err)
	}
	g, ok := run.ResultOf("callgraph", callgraph.Analyzer).(*callgraph.Graph)
	if !ok {
		t.Fatalf("ResultOf returned %T, want *callgraph.Graph", run.ResultOf("callgraph", callgraph.Analyzer))
	}
	return g
}

// edgeStrings renders a graph's edges as "caller kind callee" lines in
// Funcs/Calls order.
func edgeStrings(g *callgraph.Graph) []string {
	var out []string
	for _, fn := range g.Funcs() {
		for _, e := range g.Calls(fn) {
			callee := e.Callee.Name()
			if sig, ok := e.Callee.Type().(*types.Signature); ok && sig.Recv() != nil {
				callee = "recv." + callee
			}
			out = append(out, fmt.Sprintf("%s %s %s", fn.Name(), e.Kind, callee))
		}
	}
	return out
}

func TestEdgeKinds(t *testing.T) {
	g := buildFixtureGraph(t)
	got := strings.Join(edgeStrings(g), "\n")
	want := []string{
		"direct call leaf",
		"spawns go leaf",
		"defers defer leaf",
		"methodCall call recv.M",
		"methodValue ref recv.M",
		"goLiteral go leaf",
		"deferLiteral defer leaf",
		"inPlaceLiteral call leaf",
		"storedLiteral ref leaf",
		"callsGeneric call generic",
	}
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("missing edge %q in:\n%s", w, got)
		}
	}
	// The method call must not double as a reference edge.
	if strings.Contains(got, "methodCall ref") {
		t.Errorf("call operand double-counted as reference:\n%s", got)
	}
}

func TestGenericResolvesToOrigin(t *testing.T) {
	g := buildFixtureGraph(t)
	for _, fn := range g.Funcs() {
		if fn.Name() != "callsGeneric" {
			continue
		}
		for _, e := range g.Calls(fn) {
			if e.Callee.Name() == "generic" && e.Callee != e.Callee.Origin() {
				t.Errorf("generic callee not resolved to origin: %v", e.Callee)
			}
		}
		return
	}
	t.Fatal("callsGeneric not in graph")
}

func TestFuncsSourceOrderAndDeterminism(t *testing.T) {
	a := buildFixtureGraph(t)
	b := buildFixtureGraph(t)
	ea, eb := edgeStrings(a), edgeStrings(b)
	if fmt.Sprint(ea) != fmt.Sprint(eb) {
		t.Errorf("two runs disagree:\n%v\n%v", ea, eb)
	}
	if first := a.Funcs()[0].Name(); first != "leaf" {
		t.Errorf("Funcs not in source order: first = %s, want leaf", first)
	}
}
