// Command bitdew-vet is the project's multichecker: it runs the
// bitdew-specific analyzers (internal/analysis/passes) that encode the
// service plane's concurrency and timeout invariants as machine-checked
// gates. The stock go vet passes are not part of it; run `go vet` beside
// it.
//
// Usage:
//
//	go run ./cmd/bitdew-vet ./...          # whole module (CI runs this)
//	go run ./cmd/bitdew-vet ./internal/rpc # one package
//	go run ./cmd/bitdew-vet -list          # describe the analyzers
//
// Packages are analyzed in dependency order with one shared fact store, so
// the interprocedural halves of locks and deadlines see the facts their
// dependencies exported; diagnostics are printed, position-sorted, for the
// pattern-matched packages only. Exit status is 1 when any diagnostic is
// reported. False positives are silenced in place with a documented
// suppression:
//
//	//vet:ignore <analyzer> <reason>
//
// on the flagged line or the line above it; the reason is mandatory. See
// DESIGN.md "Static analysis & invariants" for each analyzer's contract.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bitdew/internal/analysis"
	"bitdew/internal/analysis/load"
	"bitdew/internal/analysis/passes/deadlines"
	"bitdew/internal/analysis/passes/errlost"
	"bitdew/internal/analysis/passes/leakygo"
	"bitdew/internal/analysis/passes/locks"
)

// suite lists the analyzers in reporting order.
var suite = []*analysis.Analyzer{
	locks.Analyzer,
	deadlines.Analyzer,
	errlost.Analyzer,
	leakygo.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	flag.Parse()
	if *list {
		for _, a := range suite {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Printf("%-12s %s\n", a.Name, doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	moduleDir, err := findModuleRoot()
	if err == nil {
		var n int
		n, err = check(os.Stdout, moduleDir, patterns)
		if err == nil && n > 0 {
			err = fmt.Errorf("%d diagnostics reported", n)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bitdew-vet:", err)
		os.Exit(1)
	}
}

// check loads the packages patterns match, plus their dependency closure,
// from the module at moduleDir and any GOPATH-style fixture roots; runs the
// suite over them; and prints each unsuppressed diagnostic to w. It
// returns how many it printed; err is an operational failure (unparseable
// source, unknown package), not a finding.
func check(w io.Writer, moduleDir string, patterns []string, roots ...string) (int, error) {
	l, err := load.New(moduleDir, roots...)
	if err != nil {
		return 0, err
	}
	run, err := l.Analyze(suite, patterns)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, d := range run.Diagnostics {
		if !d.Suppressed {
			fmt.Fprintln(w, d)
			n++
		}
	}
	return n, nil
}

// findModuleRoot walks up from the working directory to the go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
