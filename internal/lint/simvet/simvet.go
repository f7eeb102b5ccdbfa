// Package simvet is the repository's invariant linter: a small
// go/analysis-style framework plus four purpose-built analyzers that
// machine-check the invariants the whole reproduction stands on — sim-time
// determinism (no wall clock, no free-running goroutines, atomics or
// coroutines, no order-dependent map iteration in kernel-owned packages) and
// sentinel-error discipline (errors.Is, not == or text). The wire-protocol
// conventions (every payload-bearing message traced and checksummed) are
// tests in internal/wire, not analyzers.
//
// The framework is self-contained (no golang.org/x/tools dependency): the
// container this repo builds in has no module cache, so cmd/simvet speaks
// the `go vet -vettool` unit-checker protocol directly and analyzers receive
// a Pass shaped like golang.org/x/tools/go/analysis.Pass.
//
// A finding is suppressed by an explicit, justified escape comment on the
// offending line or the line above:
//
//	//lint:allow walltime(reports real elapsed wall time, not sim time)
//
// or, for a file that is wholesale exempt (e.g. the sim kernel itself):
//
//	//lint:allow-file nogoroutine(the kernel implementation is the one
//	place that switches coroutines)
//
// The justification is mandatory: an allow comment with an empty reason is
// itself reported and does not suppress anything.
package simvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one simvet rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full simvet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer,
		NogoroutineAnalyzer,
		MaporderAnalyzer,
		SentinelerrAnalyzer,
	}
}

// A Unit is one typechecked package-sized batch of files to analyze — what
// `go vet` hands the vettool per package (test files included), or what the
// fixture loader constructs.
type Unit struct {
	// Path is the unit's import path with any test-variant decoration
	// already stripped (see NormalizePath); analyzers scope on it.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// A Diagnostic is one finding that survived the allow-comment filter.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Pass carries one unit through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string
	Pkg      *types.Package
	Info     *types.Info

	diags  *[]Diagnostic
	allows *allowIndex
}

// Reportf records a finding at pos unless an allow comment covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	posn := p.Fset.Position(pos)
	if p.allows.allowed(p.Analyzer.Name, posn) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      posn,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to the unit and returns the findings sorted by
// position.
func Run(u *Unit, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	allows := buildAllowIndex(u.Fset, u.Files, &diags)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     u.Fset,
			Files:    u.Files,
			Path:     u.Path,
			Pkg:      u.Pkg,
			Info:     u.Info,
			diags:    &diags,
			allows:   allows,
		}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ---- allow comments ----

var allowRe = regexp.MustCompile(`//lint:allow(-file)?\s+([a-z]+)\(([^)]*)\)`)

type allowIndex struct {
	// line maps filename -> analyzer -> set of covered lines (an allow on
	// line N covers findings on N and N+1, i.e. the comment sits on the
	// offending line or the line above it).
	line map[string]map[string]map[int]bool
	// file maps filename -> analyzer -> whole-file exemption.
	file map[string]map[string]bool
}

func buildAllowIndex(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) *allowIndex {
	idx := &allowIndex{
		line: make(map[string]map[string]map[int]bool),
		file: make(map[string]map[string]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range allowRe.FindAllStringSubmatch(c.Text, -1) {
					fileWide, name, reason := m[1] != "", m[2], strings.TrimSpace(m[3])
					posn := fset.Position(c.Pos())
					if reason == "" {
						*diags = append(*diags, Diagnostic{
							Pos:      posn,
							Analyzer: name,
							Message:  fmt.Sprintf("lint:allow %s() has no justification: state why the rule does not apply here", name),
						})
						continue
					}
					if fileWide {
						byName := idx.file[posn.Filename]
						if byName == nil {
							byName = make(map[string]bool)
							idx.file[posn.Filename] = byName
						}
						byName[name] = true
						continue
					}
					byName := idx.line[posn.Filename]
					if byName == nil {
						byName = make(map[string]map[int]bool)
						idx.line[posn.Filename] = byName
					}
					lines := byName[name]
					if lines == nil {
						lines = make(map[int]bool)
						byName[name] = lines
					}
					lines[posn.Line] = true
					lines[posn.Line+1] = true
				}
			}
		}
	}
	return idx
}

func (idx *allowIndex) allowed(analyzer string, posn token.Position) bool {
	if idx == nil {
		return false
	}
	if idx.file[posn.Filename][analyzer] {
		return true
	}
	return idx.line[posn.Filename][analyzer][posn.Line]
}

// ---- path scoping helpers ----

// NormalizePath strips the decorations `go vet` puts on test-variant unit
// paths: "pkg [pkg.test]" becomes "pkg", and an external test package
// "pkg_test" scopes as "pkg".
func NormalizePath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	return path
}

// inInternal reports whether the import path has an internal/ element.
func inInternal(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

// kernelPkgs are the kernel-owned packages: all concurrency must flow
// through sim.Proc spawns and all iteration order must be deterministic,
// because a single stray goroutine or map-order dependence silently breaks
// the byte-identical-runs-per-seed property every benchmark is pinned on.
var kernelPkgs = []string{"sim", "netsim", "cluster", "update", "obs", "harness"}

// isKernel reports whether path names a kernel-owned package.
func isKernel(path string) bool {
	for _, k := range kernelPkgs {
		if strings.HasSuffix(path, "/internal/"+k) || path == "internal/"+k {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file at pos is a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// fileImports maps each file-local package name to its import path.
// Dot-imports are keyed as "." (callers flag them separately when the
// imported package matters).
func fileImports(f *ast.File) map[string]string {
	m := make(map[string]string)
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = path
	}
	return m
}

// isPkgIdent reports whether ident names the package imported as path in
// this file's import table. An identifier the typechecker resolved must
// resolve to a package name (so local shadowing never misfires); for an
// unresolved one (a unit with type errors) the import table alone decides.
func (p *Pass) isPkgIdent(imps map[string]string, ident *ast.Ident, path ...string) bool {
	got, ok := imps[ident.Name]
	if !ok {
		return false
	}
	match := false
	for _, want := range path {
		if got == want {
			match = true
			break
		}
	}
	if !match {
		return false
	}
	if obj, ok := p.Info.Uses[ident]; ok {
		_, isPkg := obj.(*types.PkgName)
		return isPkg
	}
	return true
}
