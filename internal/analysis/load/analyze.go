// Whole-program analysis driver: walks packages in dependency order so an
// analyzer's facts (analysis.Fact) are serialized — gob-encoded into the
// shared FactStore — before any importer is analyzed, exactly the flow
// x/tools' drivers implement with on-disk fact files. Dependencies that
// are not analysis targets still run every analyzer ("facts only"): their
// diagnostics are discarded but their exported facts feed the targets.
package load

import (
	"fmt"
	"sort"

	"bitdew/internal/analysis"
)

// A Run is the outcome of one Analyze call.
type Run struct {
	// Diagnostics are the findings of the target packages (the ones
	// matched by the patterns), suppression-annotated, grouped in pattern
	// order and position-sorted within each package.
	Diagnostics []analysis.Diagnostic
	// Facts is the shared store after every package ran; its Summary is
	// the deterministic rendering the determinism test pins.
	Facts *analysis.FactStore
	// Targets lists the packages diagnostics were collected for.
	Targets []*Package

	results map[string]map[*analysis.Analyzer]any
}

// ResultOf returns the Run result of one analyzer on one analyzed package
// (target or dependency), or nil: the callgraph tests use it to pull a
// package's graph out of a finished run.
func (r *Run) ResultOf(pkgPath string, a *analysis.Analyzer) any {
	return r.results[pkgPath][a]
}

// Analyze expands patterns, loads the matched packages plus their
// module/fixture dependency closure, and applies the analyzers to every
// loaded package in dependency order, sharing one fact store across the
// walk. Diagnostics are kept only for pattern-matched packages.
func (l *Loader) Analyze(analyzers []*analysis.Analyzer, patterns []string) (*Run, error) {
	paths, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]bool, len(paths))
	for _, p := range paths {
		targets[p] = true
		if _, err := l.Load(p); err != nil {
			return nil, err
		}
	}

	// Dependency-first order over every module/fixture package the
	// targets pulled in. Import lists are sorted so the walk — and with
	// it fact serialization order — is deterministic run to run.
	var order []*Package
	seen := make(map[string]bool)
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p.Path] {
			return
		}
		seen[p.Path] = true
		imps := p.Types.Imports()
		impPaths := make([]string, 0, len(imps))
		for _, imp := range imps {
			impPaths = append(impPaths, imp.Path())
		}
		sort.Strings(impPaths)
		for _, ip := range impPaths {
			if dep, ok := l.pkgs[ip]; ok {
				visit(dep)
			}
		}
		order = append(order, p)
	}
	for _, p := range paths {
		visit(l.pkgs[p])
	}

	run := &Run{
		Facts:   analysis.NewFactStore(),
		results: make(map[string]map[*analysis.Analyzer]any, len(order)),
	}
	perPkg := make(map[string][]analysis.Diagnostic)
	for _, p := range order {
		diags, results, err := analysis.RunPackage(run.Facts, analyzers, l.Fset, p.Files, p.Types, p.Info)
		if err != nil {
			return nil, fmt.Errorf("load: analyzing %s: %w", p.Path, err)
		}
		run.results[p.Path] = results
		if targets[p.Path] {
			perPkg[p.Path] = diags
		}
	}
	for _, p := range paths {
		run.Diagnostics = append(run.Diagnostics, perPkg[p]...)
		run.Targets = append(run.Targets, l.pkgs[p])
	}
	return run, nil
}
