package astq_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"bitdew/internal/analysis/astq"
	"bitdew/internal/analysis/load"
)

// fixture type-checks testdata/src/astqfix and indexes its functions by
// name.
type fixture struct {
	info  *types.Info
	funcs map[string]*ast.FuncDecl
	pkg   *types.Package
}

// parseFixture type-checks the fixture once for every test: it imports
// net, whose source takes a second to check.
var parseFixture = sync.OnceValues(func() (*fixture, error) {
	_, file, _, _ := runtime.Caller(0)
	dir := filepath.Dir(file)
	l, err := load.New(filepath.Clean(filepath.Join(dir, "..", "..", "..")), filepath.Join(dir, "testdata"))
	if err != nil {
		return nil, err
	}
	p, err := l.Load("astqfix")
	if err != nil {
		return nil, err
	}
	fx := &fixture{info: p.Info, funcs: make(map[string]*ast.FuncDecl), pkg: p.Types}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fx.funcs[fd.Name.Name] = fd
			}
		}
	}
	return fx, nil
})

func loadFixture(t *testing.T) *fixture {
	t.Helper()
	fx, err := parseFixture()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// first returns the first node of type N in the named function's body,
// outermost first.
func first[N ast.Node](t *testing.T, fx *fixture, fn string) N {
	t.Helper()
	decl := fx.funcs[fn]
	if decl == nil {
		t.Fatalf("fixture has no function %s", fn)
	}
	var found N
	done := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if m, ok := n.(N); ok && !done {
			found, done = m, true
		}
		return !done
	})
	if !done {
		t.Fatalf("%s holds no %T", fn, found)
	}
	return found
}

// callee resolves the first call of the named function.
func callee(t *testing.T, fx *fixture, fn string) *types.Func {
	t.Helper()
	return astq.Callee(fx.info, first[*ast.CallExpr](t, fx, fn))
}

func TestCallee(t *testing.T) {
	fx := loadFixture(t)
	for _, tc := range []struct {
		fn   string
		want string // FuncLabel of the callee, "" for none
	}{
		{"ptrMethod", "*astqfix.T.Ptr"},
		{"valMethod", "astqfix.T.Val"},
		{"methodExpr", "*astqfix.T.Ptr"},
		{"parenthesized", "*astqfix.T.Ptr"},
		{"genericInferred", "astqfix.Generic"},
		{"genericExplicit", "astqfix.Generic"},
		{"interfaceCall", "rpc.Client.Call"},
		// A method value called through its variable, an immediately
		// invoked literal, a built-in and a conversion resolve to nothing.
		{"methodValue", ""},
		{"invokedLiteral", ""},
		{"builtin", ""},
		{"conversion", ""},
	} {
		fn := callee(t, fx, tc.fn)
		got := ""
		if fn != nil {
			got = astq.FuncLabel(fn)
		}
		if got != tc.want {
			t.Errorf("%s: Callee = %q, want %q", tc.fn, got, tc.want)
		}
	}
}

func TestPkgFuncAndMethodNamed(t *testing.T) {
	fx := loadFixture(t)
	ptr := callee(t, fx, "ptrMethod")
	generic := callee(t, fx, "genericExplicit")
	dialMethod := callee(t, fx, "dialMethod")
	for _, tc := range []struct {
		name string
		got  bool
		want bool
	}{
		{"pointer-receiver method, its package", astq.IsMethodNamed(ptr, "astqfix", "Val", "Ptr"), true},
		{"pointer-receiver method, any package", astq.IsMethodNamed(ptr, "", "Ptr"), true},
		{"pointer-receiver method, another package", astq.IsMethodNamed(ptr, "rpc", "Ptr"), false},
		{"pointer-receiver method, another name", astq.IsMethodNamed(ptr, "", "Val"), false},
		{"pointer-receiver method is no package function", astq.IsPkgFunc(ptr, "astqfix", "Ptr"), false},
		{"rpc pointer-receiver Dial is no package function", astq.IsPkgFunc(dialMethod, "rpc", "Dial"), false},
		{"generic function", astq.IsPkgFunc(generic, "astqfix", "Generic"), true},
		{"generic function is no method", astq.IsMethodNamed(generic, "", "Generic"), false},
		{"nil", astq.IsPkgFunc(nil, "astqfix", "Generic") || astq.IsMethodNamed(nil, "", "Ptr"), false},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestTypeName(t *testing.T) {
	fx := loadFixture(t)
	obj := fx.pkg.Scope().Lookup("T")
	client := callee(t, fx, "interfaceCall").Type().(*types.Signature).Recv().Type()
	for _, tc := range []struct {
		typ  types.Type
		want string
	}{
		{obj.Type(), "astqfix.T"},
		{types.NewPointer(obj.Type()), "*astqfix.T"},
		{types.NewSlice(client), "[]rpc.Client"},
		{types.NewMap(types.Typ[types.String], types.NewPointer(obj.Type())), "map[string]*astqfix.T"},
	} {
		if got := astq.TypeName(tc.typ); got != tc.want {
			t.Errorf("TypeName = %q, want %q", got, tc.want)
		}
	}
}

func TestBlockingCall(t *testing.T) {
	fx := loadFixture(t)
	for _, tc := range []struct {
		fn   string
		kind astq.Blocking
		what string
	}{
		{"interfaceCall", astq.RPCCall, "rpc Call"},
		{"callBatchMethod", astq.RPCCall, "rpc CallBatch"},
		{"callBatchFunc", astq.RPCCall, "rpc.CallBatch"},
		{"dial", astq.RPCDial, "rpc.Dial"},
		{"dialAutoLazyN", astq.RPCDial, "rpc.DialAutoLazyN"},
		{"listen", astq.Socket, "rpc.Listen"},
		{"netDial", astq.Socket, "net.Dial"},
		{"netDialTimeout", astq.Socket, "net.DialTimeout"},
		{"sleep", astq.Sleep, "time.Sleep"},
		{"dialMethod", astq.NotBlocking, ""},
		{"now", astq.NotBlocking, ""},
		{"option", astq.NotBlocking, ""},
		{"ptrMethod", astq.NotBlocking, ""},
		{"methodValue", astq.NotBlocking, ""}, // unresolved callee
	} {
		kind, what := astq.BlockingCall(callee(t, fx, tc.fn))
		if kind != tc.kind || what != tc.what {
			t.Errorf("%s: BlockingCall = (%d, %q), want (%d, %q)", tc.fn, kind, what, tc.kind, tc.what)
		}
	}
}

func TestIsUnconditional(t *testing.T) {
	fx := loadFixture(t)
	for _, tc := range []struct {
		fn   string
		want bool
	}{
		{"forEver", true},
		{"forTrue", true},
		{"forCounted", false},
		{"forCond", false},
	} {
		if got := astq.IsUnconditional(first[*ast.ForStmt](t, fx, tc.fn)); got != tc.want {
			t.Errorf("%s: IsUnconditional = %v, want %v", tc.fn, got, tc.want)
		}
	}
}
