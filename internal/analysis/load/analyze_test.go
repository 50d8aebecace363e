package load

import (
	"path/filepath"
	"strings"
	"testing"

	"bitdew/internal/analysis"
	"bitdew/internal/analysis/passes/deadlines"
	"bitdew/internal/analysis/passes/locks"
)

// analyzeFixtureOnce runs the fact-exporting passes over a pass's
// fixture with a completely fresh loader and store.
func analyzeFixtureOnce(t *testing.T, fixture string, patterns ...string) *Run {
	t.Helper()
	l, err := New(moduleRoot(t), fixture)
	if err != nil {
		t.Fatal(err)
	}
	run, err := l.Analyze([]*analysis.Analyzer{
		deadlines.Analyzer, locks.Analyzer,
	}, patterns)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestFactSerializationDeterministic pins that two independent runs —
// fresh loaders, fresh fact stores, fresh type-checker universes —
// serialize byte-identical fact stores: the ordering guarantees of the
// dependency walk, the edge sorts and the store summary hold end to end.
func TestFactSerializationDeterministic(t *testing.T) {
	fixture := filepath.Join(moduleRoot(t), "internal", "analysis", "passes", "deadlines", "testdata")
	a := analyzeFixtureOnce(t, fixture, "deadlinehelp", "deadlineprop")
	b := analyzeFixtureOnce(t, fixture, "deadlinehelp", "deadlineprop")
	sa, sb := a.Facts.Summary(), b.Facts.Summary()
	if len(sa) == 0 {
		t.Fatal("no facts serialized: the fixture should export BlocksOnRPC facts")
	}
	if strings.Join(sa, "\n") != strings.Join(sb, "\n") {
		t.Errorf("fact stores differ between runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			strings.Join(sa, "\n"), strings.Join(sb, "\n"))
	}
	for _, line := range sa {
		if strings.Contains(line, "deadlinehelp.FetchOne") && strings.Contains(line, "BlocksOnRPC") {
			return
		}
	}
	t.Errorf("summary missing the cross-package BlocksOnRPC fact:\n%s", strings.Join(sa, "\n"))
}

// TestDiagnosticsDeterministic pins the diagnostic ordering contract of
// Analyze across runs on the same fixture.
func TestDiagnosticsDeterministic(t *testing.T) {
	fixture := filepath.Join(moduleRoot(t), "internal", "analysis", "passes", "locks", "testdata")
	a := analyzeFixtureOnce(t, fixture, "locka", "lockorder")
	b := analyzeFixtureOnce(t, fixture, "locka", "lockorder")
	render := func(r *Run) string {
		var sb strings.Builder
		for _, d := range r.Diagnostics {
			sb.WriteString(d.String())
			sb.WriteString("\n")
		}
		return sb.String()
	}
	if da, db := render(a), render(b); da != db {
		t.Errorf("diagnostics differ between runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", da, db)
	} else if !strings.Contains(da, "lock order cycle") {
		t.Errorf("expected a lock order cycle diagnostic, got:\n%s", da)
	}
}
