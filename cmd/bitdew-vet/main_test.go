package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"bitdew/internal/analysis/vet"
)

// moduleRoot locates the repository root from this file's position.
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", ".."))
}

// badFixtureOpts targets the known-bad fixture package.
func badFixtureOpts(t *testing.T) vet.Options {
	t.Helper()
	root := moduleRoot(t)
	return vet.Options{
		ModuleDir:  root,
		ExtraRoots: []string{filepath.Join(root, "cmd", "bitdew-vet", "testdata")},
	}
}

// TestMulticheckerOnBadFixture runs the full suite over the known-bad
// fixture package and asserts the exact diagnostics, one per analyzer —
// the end-to-end proof that the multichecker loads, analyzes, propagates
// facts, suppresses and reports like the CI gate does.
func TestMulticheckerOnBadFixture(t *testing.T) {
	var out bytes.Buffer
	n, err := vet.Run(badFixtureOpts(t), []string{"badpkg"}, &out)
	if err != nil {
		t.Fatalf("vet.Run: %v\noutput:\n%s", err, out.String())
	}
	if n != 6 {
		t.Fatalf("got %d diagnostics, want 6:\n%s", n, out.String())
	}
	got := out.String()
	wants := []string{
		"bad.go:31:6: lockheld: rpc Call while holding s.mu",
		"bad.go:36:9: rpcdeadline: rpc.DialAuto without rpc.WithCallTimeout",
		"bad.go:42:2: errlost: result of CallBatch discarded",
		"bad.go:49:3: leakygo: goroutine started by a constructor loops forever with no exit",
		"bad.go:72:2: lockorder: lock order cycle (potential deadlock): badpkg.Service.mu (held at ",
		"bad.go:92:6: deadlineprop: call to badpkg.fetch (blocks on rpc via fetch → rpc Call) inside an unbounded for-loop with no deadline",
	}
	for _, w := range wants {
		if !strings.Contains(got, w) {
			t.Errorf("missing diagnostic %q in output:\n%s", w, got)
		}
	}
	// Diagnostics must come out position-sorted for stable CI diffs.
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d output lines, want 6:\n%s", len(lines), got)
	}
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Errorf("output not sorted at line %d:\n%s", i, got)
		}
	}
}

// TestJSONOutput pins the -json wire form: every diagnostic with file,
// line, analyzer, message; suppressed findings included with reasons.
func TestJSONOutput(t *testing.T) {
	opts := badFixtureOpts(t)
	opts.JSON = true
	var out bytes.Buffer
	n, err := vet.Run(opts, []string{"badpkg"}, &out)
	if err != nil {
		t.Fatalf("vet.Run: %v\noutput:\n%s", err, out.String())
	}
	if n != 6 {
		t.Fatalf("got %d unsuppressed diagnostics, want 6:\n%s", n, out.String())
	}
	var diags []struct {
		File        string `json:"file"`
		Line        int    `json:"line"`
		Col         int    `json:"col"`
		Analyzer    string `json:"analyzer"`
		Message     string `json:"message"`
		Suppressed  bool   `json:"suppressed"`
		Suppression string `json:"suppression"`
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, out.String())
	}
	if len(diags) != 6 {
		t.Fatalf("got %d JSON entries, want 6:\n%s", len(diags), out.String())
	}
	byAnalyzer := make(map[string]int)
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete JSON entry: %+v", d)
		}
		if d.Suppressed {
			t.Errorf("badpkg has no suppressions, entry claims one: %+v", d)
		}
		byAnalyzer[d.Analyzer]++
	}
	for _, a := range vet.Suite() {
		if byAnalyzer[a.Name] != 1 {
			t.Errorf("analyzer %s has %d JSON entries, want 1", a.Name, byAnalyzer[a.Name])
		}
	}
}

// TestJSONIncludesSuppressed pins that -json surfaces suppressed findings
// with their reasons instead of dropping them.
func TestJSONIncludesSuppressed(t *testing.T) {
	opts := badFixtureOpts(t)
	opts.JSON = true
	var out bytes.Buffer
	n, err := vet.Run(opts, []string{"okpkg"}, &out)
	if err != nil {
		t.Fatalf("vet.Run: %v\noutput:\n%s", err, out.String())
	}
	if n != 0 {
		t.Fatalf("suppressed findings must not count, got n=%d:\n%s", n, out.String())
	}
	var diags []struct {
		Analyzer    string `json:"analyzer"`
		Suppressed  bool   `json:"suppressed"`
		Suppression string `json:"suppression"`
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(diags) != 1 {
		t.Fatalf("got %d entries, want the 1 suppressed finding:\n%s", len(diags), out.String())
	}
	if !diags[0].Suppressed || diags[0].Analyzer != "errlost" ||
		!strings.Contains(diags[0].Suppression, "best-effort") {
		t.Errorf("suppressed entry malformed: %+v", diags[0])
	}
}

// TestGraphOutput pins the -graph DOT dump: a digraph wrapping the
// matched packages' call-graph clusters with kind-styled edges.
func TestGraphOutput(t *testing.T) {
	opts := badFixtureOpts(t)
	opts.Graph = true
	var out bytes.Buffer
	if _, err := vet.Run(opts, []string{"badpkg"}, &out); err != nil {
		t.Fatalf("vet.Run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, w := range []string{
		"digraph bitdew {",
		`subgraph "cluster_badpkg"`,
		`"badpkg.retryBad" -> "badpkg.fetch";`,
		`"badpkg.NewService" -> "time.Now" [style=dashed,label="go"];`,
		"}",
	} {
		if !strings.Contains(got, w) {
			t.Errorf("DOT output missing %q:\n%s", w, got)
		}
	}
}

// TestSuiteCoversSixAnalyzers pins the advertised suite: CI docs and
// DESIGN.md name exactly these analyzers, in this order.
func TestSuiteCoversSixAnalyzers(t *testing.T) {
	want := []string{
		"lockheld", "lockorder",
		"rpcdeadline", "deadlineprop", "errlost", "leakygo",
	}
	got := vet.Suite()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}

// TestWholeModuleClean is the acceptance gate run as a test: the final
// tree must be free of findings (true positives are fixed, deliberate
// drops carry documented suppressions).
func TestWholeModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	if raceEnabled {
		t.Skip("single-goroutine CPU work; under -race it only starves the parallel acceptance tests (CI runs bitdew-vet as its own step)")
	}
	root := moduleRoot(t)
	var out bytes.Buffer
	n, err := vet.Run(vet.Options{ModuleDir: root}, []string{"./..."}, &out)
	if err != nil {
		t.Fatalf("vet.Run: %v\noutput:\n%s", err, out.String())
	}
	if n != 0 {
		t.Fatalf("bitdew-vet ./... reports %d findings on the final tree:\n%s", n, out.String())
	}
}
