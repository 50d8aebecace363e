// Package analysis is a self-contained, dependency-free analogue of
// golang.org/x/tools/go/analysis: the substrate on which bitdew-vet's
// project-specific analyzers run. The module builds offline by design
// (ROADMAP: no third-party deps), so instead of importing x/tools this
// package re-creates the slice of its API the suite needs — Analyzer,
// Pass, Diagnostic, Facts, Requires/ResultOf — on top of go/ast and
// go/types alone.
//
// The suite exists for the same reason the runtime has a WAL and the rpc
// layer compiles its payload types at mount: BitDew's promises (paper §2 — resilience
// and schedulable transfers guaranteed by the runtime, not by programmer
// discipline) only hold while a handful of cross-cutting invariants hold.
// Those invariants were previously enforced by convention and by whichever
// race the stress harness happened to trip; each analyzer in passes/ turns
// one of them into a machine-checked CI gate. See DESIGN.md "Static
// analysis & invariants".
//
// # Facts
//
// Invariants that span packages (lock acquisition order, call-timeout
// propagation through helpers) need analysis results to flow across package
// boundaries. Mirroring x/tools, an analyzer may attach a Fact to an
// object it declares (ExportObjectFact) or to its package
// (ExportPackageFact); the driver (analysis/load) serializes each
// package's facts with encoding/gob when the package's analysis completes
// and makes them importable (ImportObjectFact / ImportPackageFact) from
// every package analyzed later in dependency order. The gob round trip is
// mandatory, not an optimization: it guarantees facts carry only plain
// serializable data — no AST or types references that would pin a
// package's syntax in memory — and gives fact flow a deterministic,
// pinnable byte form (see load's determinism test).
package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. Mirrors the x/tools type of
// the same name so the passes read like stock go/analysis code (and could
// be ported to the real framework wholesale if the offline constraint ever
// lifts).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //vet:ignore
	// suppressions. Lower-case, no spaces.
	Name string
	// Doc states the invariant the analyzer enforces; the first line is
	// shown by bitdew-vet -list.
	Doc string
	// Requires lists analyzers that must run on the same package first;
	// their Run results are available through Pass.ResultOf. The driver
	// runs the closure in dependency order and rejects cycles.
	Requires []*Analyzer
	// FactTypes declares the Fact types this analyzer exports or imports,
	// as zero values (conventionally pointers to zero structs). Every type
	// is registered with gob; an analyzer that touches facts without
	// declaring them here fails at export time.
	FactTypes []Fact
	// Run applies the analyzer to one package. Its first result is the
	// value exposed to dependents via Pass.ResultOf (nil when the analyzer
	// exists only for its diagnostics or facts). A non-nil error aborts
	// the whole vet run (reserved for analyzer bugs, not findings).
	Run func(*Pass) (any, error)
}

// A Fact is a serializable unit of analysis output attached to an object
// or package, visible to later analysis of importing packages. The AFact
// marker method keeps arbitrary values out of the fact store; facts must
// gob-encode (exported fields only, no AST/types references).
type Fact interface{ AFact() }

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ResultOf holds the Run results of this package's Requires closure,
	// keyed by analyzer.
	ResultOf map[*Analyzer]any

	facts *FactStore
	diags *[]Diagnostic
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks a finding covered by a well-formed //vet:ignore;
	// Suppression carries its reason. Suppressed findings are kept (the
	// -json report shows them) but do not count against the exit status.
	Suppressed  bool
	Suppression string
}

// String renders the diagnostic in the file:line:col style of go vet.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportObjectFact attaches fact to obj, which must be declared by the
// package under analysis: facts flow strictly in dependency order, so a
// pass cannot annotate an imported object (the importee was analyzed
// first). The fact is gob-encoded immediately — a non-serializable fact is
// an analyzer bug surfaced at the export site.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("analysis: %s: ExportObjectFact on object %v not declared by %s",
			p.Analyzer.Name, obj, p.Pkg.Path()))
	}
	p.facts.exportObject(p.Analyzer, obj, fact)
}

// ImportObjectFact copies the fact of the given type attached to obj into
// *fact, reporting whether one exists. obj may belong to any package
// analyzed earlier (or the current one).
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.importObject(p.Analyzer, obj, fact)
}

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.exportPackage(p.Analyzer, p.Pkg, fact)
}

// ImportPackageFact copies the fact of the given type attached to pkg into
// *fact, reporting whether one exists.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	return p.facts.importPackage(p.Analyzer, pkg, fact)
}

// AllPackageFacts lists every package fact exported by this analyzer so
// far, across all packages analyzed before (and including) this one, in
// deterministic package-path order. Whole-plane passes (lockorder) use it
// to union per-package graphs without re-walking the import closure.
func (p *Pass) AllPackageFacts() []PackageFact {
	return p.facts.allPackageFacts(p.Analyzer)
}

// An ObjectFact is one (object, fact) pair as recorded in the store.
type ObjectFact struct {
	Object   types.Object
	Analyzer string
	Fact     Fact
}

// A PackageFact is one (package, fact) pair as recorded in the store.
type PackageFact struct {
	Package  *types.Package
	Analyzer string
	Fact     Fact
}

// FactStore holds the facts exported while a driver walks packages in
// dependency order. Facts are stored gob-encoded (the serialized form IS
// the source of truth) and decoded on import; Summary exposes the
// deterministic rendering the load tests pin.
type FactStore struct {
	objects  map[objectFactKey][]byte
	packages map[pkgFactKey][]byte
	// objOrder/pkgOrder remember insertion objects for enumeration with
	// stable, position-independent sort keys.
	objIndex map[objectFactKey]types.Object
	pkgIndex map[pkgFactKey]*types.Package
}

type objectFactKey struct {
	analyzer string
	obj      types.Object
	factType reflect.Type
}

type pkgFactKey struct {
	analyzer string
	pkg      *types.Package
	factType reflect.Type
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		objects:  make(map[objectFactKey][]byte),
		packages: make(map[pkgFactKey][]byte),
		objIndex: make(map[objectFactKey]types.Object),
		pkgIndex: make(map[pkgFactKey]*types.Package),
	}
}

// registerFactTypes makes the analyzer's declared fact types known to gob.
// Registration is idempotent per concrete type.
func registerFactTypes(a *Analyzer) {
	for _, f := range a.FactTypes {
		gob.Register(f)
	}
}

func encodeFact(analyzer string, fact Fact) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&fact); err != nil {
		panic(fmt.Sprintf("analysis: %s: fact %T does not gob-encode: %v (declare it in FactTypes and keep it plain data)",
			analyzer, fact, err))
	}
	return buf.Bytes()
}

func decodeFact(raw []byte) Fact {
	var fact Fact
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&fact); err != nil {
		panic(fmt.Sprintf("analysis: stored fact does not gob-decode: %v", err))
	}
	return fact
}

func (s *FactStore) exportObject(a *Analyzer, obj types.Object, fact Fact) {
	registerFactTypes(a)
	key := objectFactKey{analyzer: a.Name, obj: obj, factType: reflect.TypeOf(fact)}
	s.objects[key] = encodeFact(a.Name, fact)
	s.objIndex[key] = obj
}

func (s *FactStore) importObject(a *Analyzer, obj types.Object, fact Fact) bool {
	registerFactTypes(a)
	raw, ok := s.objects[objectFactKey{analyzer: a.Name, obj: obj, factType: reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	copyFact(decodeFact(raw), fact)
	return true
}

func (s *FactStore) exportPackage(a *Analyzer, pkg *types.Package, fact Fact) {
	registerFactTypes(a)
	key := pkgFactKey{analyzer: a.Name, pkg: pkg, factType: reflect.TypeOf(fact)}
	s.packages[key] = encodeFact(a.Name, fact)
	s.pkgIndex[key] = pkg
}

func (s *FactStore) importPackage(a *Analyzer, pkg *types.Package, fact Fact) bool {
	registerFactTypes(a)
	raw, ok := s.packages[pkgFactKey{analyzer: a.Name, pkg: pkg, factType: reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	copyFact(decodeFact(raw), fact)
	return true
}

// copyFact copies the decoded fact value into the caller's pointer.
func copyFact(from Fact, into Fact) {
	dv := reflect.ValueOf(into)
	sv := reflect.ValueOf(from)
	if dv.Kind() != reflect.Pointer || sv.Kind() != reflect.Pointer || dv.Type() != sv.Type() {
		panic(fmt.Sprintf("analysis: fact type mismatch: stored %T, want %T", from, into))
	}
	dv.Elem().Set(sv.Elem())
}

func (s *FactStore) allPackageFacts(a *Analyzer) []PackageFact {
	var out []PackageFact
	for key, raw := range s.packages {
		if key.analyzer != a.Name {
			continue
		}
		out = append(out, PackageFact{Package: s.pkgIndex[key], Analyzer: key.analyzer, Fact: decodeFact(raw)})
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i].Package.Path(), out[j].Package.Path(); a != b {
			return a < b
		}
		return fmt.Sprintf("%T", out[i].Fact) < fmt.Sprintf("%T", out[j].Fact)
	})
	return out
}

// AllObjectFacts lists every stored object fact in deterministic order
// (package path, object name, analyzer, fact type). The analysistest
// runner matches `// want fact:"re"` comments against this view.
func (s *FactStore) AllObjectFacts() []ObjectFact {
	type row struct {
		key  string
		fact ObjectFact
	}
	var rows []row
	for key, raw := range s.objects {
		obj := s.objIndex[key]
		rows = append(rows, row{
			key:  objectKey(obj) + "\x00" + key.analyzer + "\x00" + key.factType.String(),
			fact: ObjectFact{Object: obj, Analyzer: key.analyzer, Fact: decodeFact(raw)},
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	out := make([]ObjectFact, len(rows))
	for i, r := range rows {
		out[i] = r.fact
	}
	return out
}

// objectKey renders a stable, position-independent identity for an object:
// package path plus the object's qualified name (receiver-qualified for
// methods).
func objectKey(obj types.Object) string {
	if obj == nil {
		return "<nil>"
	}
	pkg := "<builtin>"
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			name = types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return "" }) + "." + name
		}
	}
	return pkg + "." + name
}

// Summary renders the whole store deterministically, one line per fact:
// "objectKey analyzer=FactRendering". The load determinism test pins that
// two independent runs produce byte-identical summaries.
func (s *FactStore) Summary() []string {
	var out []string
	for _, of := range s.AllObjectFacts() {
		out = append(out, fmt.Sprintf("%s %s=%v [%d bytes]",
			objectKey(of.Object), of.Analyzer, of.Fact, len(s.objects[objectFactKey{
				analyzer: of.Analyzer, obj: of.Object, factType: reflect.TypeOf(of.Fact)}])))
	}
	type prow struct{ key, line string }
	var prows []prow
	for key, raw := range s.packages {
		fact := decodeFact(raw)
		prows = append(prows, prow{
			key: s.pkgIndex[key].Path() + "\x00" + key.analyzer + "\x00" + key.factType.String(),
			line: fmt.Sprintf("package:%s %s=%v [%d bytes]",
				s.pkgIndex[key].Path(), key.analyzer, fact, len(raw)),
		})
	}
	sort.Slice(prows, func(i, j int) bool { return prows[i].key < prows[j].key })
	for _, r := range prows {
		out = append(out, r.line)
	}
	return out
}

// ignoreDirective is the suppression marker. A comment of the form
//
//	//vet:ignore <analyzer> <reason>
//
// on the flagged line (or alone on the line directly above it) silences
// that analyzer for that line. The reason is mandatory: a suppression is a
// documented design decision (e.g. a deliberately best-effort CallBatch),
// and a bare one is itself reported as a finding.
const ignoreDirective = "//vet:ignore"

// suppression is one parsed //vet:ignore comment.
type suppression struct {
	analyzer string
	reason   string
	pos      token.Position
}

// RequiresClosure flattens the analyzers plus their transitive Requires
// into execution order (dependencies first), rejecting cycles.
func RequiresClosure(analyzers []*Analyzer) ([]*Analyzer, error) {
	var order []*Analyzer
	state := make(map[*Analyzer]int) // 0 unseen, 1 visiting, 2 done
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		switch state[a] {
		case 1:
			return fmt.Errorf("analysis: Requires cycle through %s", a.Name)
		case 2:
			return nil
		}
		state[a] = 1
		for _, dep := range a.Requires {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[a] = 2
		order = append(order, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// RunPackage applies the analyzers (plus their Requires closure) to one
// package, sharing facts through store: exports land in it, imports read
// from it. Returns the surviving diagnostics annotated with suppressions
// and sorted by position, plus each analyzer's Run result. The store must
// have seen the package's dependencies already — analysis/load walks
// packages in dependency order to guarantee it.
func RunPackage(store *FactStore, analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, map[*Analyzer]any, error) {
	order, err := RequiresClosure(analyzers)
	if err != nil {
		return nil, nil, err
	}
	var diags []Diagnostic
	results := make(map[*Analyzer]any)
	for _, a := range order {
		registerFactTypes(a)
		resultOf := make(map[*Analyzer]any, len(a.Requires))
		for _, dep := range a.Requires {
			resultOf[dep] = results[dep]
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			ResultOf:  resultOf,
			facts:     store,
			diags:     &diags,
		}
		res, err := a.Run(pass)
		if err != nil {
			return nil, nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		results[a] = res
	}
	diags = applySuppressions(diags, fset, files)
	SortDiagnostics(diags)
	return diags, results, nil
}

// RunAnalyzers applies every analyzer to a single package with a fresh
// fact store and returns only unsuppressed diagnostics — the pre-facts
// entry point, kept for single-package callers with no cross-package
// analyzers in play.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	diags, _, err := RunPackage(NewFactStore(), analyzers, fset, files, pkg, info)
	if err != nil {
		return nil, err
	}
	out := diags[:0]
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out, nil
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer —
// the stable CI-diff order every driver emits.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// applySuppressions annotates diags covered by the files' //vet:ignore
// comments and appends diagnostics for malformed suppressions (missing
// reason). Suppressed diagnostics are kept — the -json report shows them
// with their reasons — but drivers exclude them from counts and text
// output.
func applySuppressions(diags []Diagnostic, fset *token.FileSet, files []*ast.File) []Diagnostic {
	// (file, line, analyzer) -> suppression
	index := make(map[string]*suppression)
	var all []*suppression
	key := func(file string, line int, analyzer string) string {
		return fmt.Sprintf("%s:%d:%s", file, line, analyzer)
	}
	// ignoreLines records which lines hold //vet:ignore comments, so a
	// stack of suppressions above one statement all reach past each other
	// to the flagged line.
	ignoreLines := make(map[string]bool) // "file:line"
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				pos := fset.Position(c.Pos())
				ignoreLines[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = true
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignoreDirective))
				name, reason, _ := strings.Cut(rest, " ")
				s := &suppression{analyzer: name, reason: strings.TrimSpace(reason), pos: pos}
				all = append(all, s)
			}
		}
	}
	for _, s := range all {
		if s.analyzer == "" || s.reason == "" {
			continue // malformed; reported below, suppresses nothing
		}
		// The suppression covers its own line (trailing comment) and the
		// next non-suppression line (comment line above the flagged
		// statement, possibly below further stacked suppressions).
		index[key(s.pos.Filename, s.pos.Line, s.analyzer)] = s
		next := s.pos.Line + 1
		for ignoreLines[fmt.Sprintf("%s:%d", s.pos.Filename, next)] {
			next++
		}
		index[key(s.pos.Filename, next, s.analyzer)] = s
	}
	for i := range diags {
		if s := index[key(diags[i].Pos.Filename, diags[i].Pos.Line, diags[i].Analyzer)]; s != nil {
			diags[i].Suppressed = true
			diags[i].Suppression = s.reason
		}
	}
	out := diags
	for _, s := range all {
		if s.analyzer == "" || s.reason == "" {
			out = append(out, Diagnostic{
				Pos:      s.pos,
				Analyzer: "suppress",
				Message:  "malformed //vet:ignore: want \"//vet:ignore <analyzer> <reason>\" with a non-empty reason",
			})
		}
	}
	return out
}
