package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
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

// TestMulticheckerOnBadFixture runs the full suite over the known-bad
// fixture package and asserts the exact diagnostics, one per rule — the
// end-to-end proof that the multichecker loads, analyzes, propagates
// facts, suppresses and reports like the CI gate does. okpkg's one
// finding is suppressed, so it adds no line.
func TestMulticheckerOnBadFixture(t *testing.T) {
	root := moduleRoot(t)
	var out bytes.Buffer
	n, err := check(&out, root, []string{"badpkg", "okpkg"}, filepath.Join(root, "cmd", "bitdew-vet", "testdata"))
	if err != nil {
		t.Fatalf("check: %v\noutput:\n%s", err, out.String())
	}
	if n != 6 {
		t.Fatalf("got %d diagnostics, want 6:\n%s", n, out.String())
	}
	got := out.String()
	wants := []string{
		"bad.go:31:6: locks: rpc Call while holding s.mu",
		"bad.go:36:9: deadlines: rpc.DialAuto without rpc.WithCallTimeout",
		"bad.go:42:2: errlost: result of CallBatch discarded",
		"bad.go:49:3: leakygo: goroutine started by a constructor loops forever with no exit",
		"bad.go:72:2: locks: lock order cycle (potential deadlock): badpkg.Service.mu (held at ",
		"bad.go:92:6: deadlines: call to badpkg.fetch (blocks on rpc via fetch → rpc Call) inside an unbounded for-loop with no deadline",
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

// TestSuiteCoversFourAnalyzers pins the advertised suite: CI and DESIGN.md
// name exactly these analyzers, in this order.
func TestSuiteCoversFourAnalyzers(t *testing.T) {
	want := []string{"locks", "deadlines", "errlost", "leakygo"}
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
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
	var out bytes.Buffer
	n, err := check(&out, moduleRoot(t), []string{"./..."})
	if err != nil {
		t.Fatalf("check: %v\noutput:\n%s", err, out.String())
	}
	if n != 0 {
		t.Fatalf("bitdew-vet ./... reports %d findings on the final tree:\n%s", n, out.String())
	}
}
