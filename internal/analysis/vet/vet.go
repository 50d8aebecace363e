// Package vet assembles the bitdew analyzer suite and drives it over
// packages: the library behind cmd/bitdew-vet, factored out so the
// multichecker's end-to-end behaviour is testable without executing a
// built binary.
//
// The suite runs through the analysis/load driver: packages are analyzed
// in dependency order with one shared fact store, so the interprocedural
// passes (lockorder, deadlineprop) see the facts their
// dependencies exported. Reporting stays limited to the pattern-matched
// packages.
package vet

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"

	"bitdew/internal/analysis"
	"bitdew/internal/analysis/callgraph"
	"bitdew/internal/analysis/load"
	"bitdew/internal/analysis/passes/deadlineprop"
	"bitdew/internal/analysis/passes/errlost"
	"bitdew/internal/analysis/passes/leakygo"
	"bitdew/internal/analysis/passes/lockheld"
	"bitdew/internal/analysis/passes/lockorder"
	"bitdew/internal/analysis/passes/rpcdeadline"
)

// Suite returns the project analyzers in reporting order: each local
// invariant checker followed by its interprocedural extension.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockheld.Analyzer,
		lockorder.Analyzer,
		rpcdeadline.Analyzer,
		deadlineprop.Analyzer,
		errlost.Analyzer,
		leakygo.Analyzer,
	}
}

// Options configure a Run.
type Options struct {
	// ModuleDir is the directory holding go.mod.
	ModuleDir string
	// ExtraRoots are additional GOPATH-style fixture roots (tests only).
	ExtraRoots []string
	// Stock also runs `go vet` over the same patterns first, so the
	// binary subsumes the standard passes.
	Stock bool
	// Analyzers overrides Suite() when non-nil.
	Analyzers []*analysis.Analyzer
	// JSON emits a machine-readable diagnostic array (including
	// suppressed findings with their reasons) instead of go-vet lines.
	JSON bool
	// Graph skips diagnostic output and dumps the static call graph of
	// the matched packages in Graphviz DOT syntax.
	Graph bool
}

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	File        string `json:"file"`
	Line        int    `json:"line"`
	Col         int    `json:"col"`
	Analyzer    string `json:"analyzer"`
	Message     string `json:"message"`
	Suppressed  bool   `json:"suppressed,omitempty"`
	Suppression string `json:"suppression,omitempty"`
}

// Run loads every package matched by patterns plus their dependency
// closure, applies the suite in dependency order, and writes diagnostics
// to w in go-vet style (or JSON / DOT per Options). It returns the number
// of unsuppressed diagnostics; err is reserved for operational failures
// (unparseable source, unknown package), not findings.
func Run(opts Options, patterns []string, w io.Writer) (int, error) {
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = Suite()
	}
	if opts.Graph {
		// The graph may be requested with an analyzer override that does
		// not pull callgraph in through Requires.
		analyzers = append([]*analysis.Analyzer{callgraph.Analyzer}, analyzers...)
	}
	count := 0
	if opts.Stock {
		n, err := runStockVet(opts.ModuleDir, patterns, w)
		if err != nil {
			return count, err
		}
		count += n
	}
	l, err := load.New(opts.ModuleDir, opts.ExtraRoots...)
	if err != nil {
		return count, err
	}
	run, err := l.Analyze(analyzers, patterns)
	if err != nil {
		return count, err
	}
	if opts.Graph {
		fmt.Fprintln(w, "digraph bitdew {")
		for _, p := range run.Targets {
			if g, ok := run.ResultOf(p.Path, callgraph.Analyzer).(*callgraph.Graph); ok {
				fmt.Fprint(w, g.DOT())
			}
		}
		fmt.Fprintln(w, "}")
		return count, nil
	}
	if opts.JSON {
		out := make([]jsonDiag, 0, len(run.Diagnostics))
		for _, d := range run.Diagnostics {
			out = append(out, jsonDiag{
				File:        d.Pos.Filename,
				Line:        d.Pos.Line,
				Col:         d.Pos.Column,
				Analyzer:    d.Analyzer,
				Message:     d.Message,
				Suppressed:  d.Suppressed,
				Suppression: d.Suppression,
			})
			if !d.Suppressed {
				count++
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return count, err
		}
		return count, nil
	}
	for _, d := range run.Diagnostics {
		if d.Suppressed {
			continue
		}
		fmt.Fprintln(w, d)
		count++
	}
	return count, nil
}

// runStockVet shells out to `go vet`, streaming its findings to w. A
// non-zero exit with output counts as findings, not as an operational
// error.
func runStockVet(moduleDir string, patterns []string, w io.Writer) (int, error) {
	cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
	cmd.Dir = moduleDir
	out, err := cmd.CombinedOutput()
	if len(out) > 0 {
		w.Write(out)
	}
	if err != nil {
		if _, ok := err.(*exec.ExitError); ok {
			return 1, nil // findings already streamed
		}
		return 0, fmt.Errorf("vet: running go vet: %w", err)
	}
	return 0, nil
}
