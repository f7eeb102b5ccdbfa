package simvet

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the analysistest-style expectations embedded in fixtures:
// a `// want "regex"` comment on a line means at least one diagnostic whose
// message matches the regex must be reported on that line; any diagnostic
// not covered by a want fails the test, so every fixture line without an
// annotation doubles as a false-positive guard.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type fixtureSpec struct {
	analyzer *Analyzer
	dir      string // package directory under testdata/src
	path     string // unit import path the analyzer scopes on
}

func fixtureSpecs() []fixtureSpec {
	return []fixtureSpec{
		{WalltimeAnalyzer, "walltime", "tsue/internal/harness"},
		{NogoroutineAnalyzer, "nogoroutine", "tsue/internal/sim"},
		{MaporderAnalyzer, "maporder", "tsue/internal/cluster"},
		{SentinelerrAnalyzer, "sentinelerr", "tsue/internal/cluster"},
	}
}

// TestAnalyzersOnFixtures runs each analyzer over its golden fixture package
// and checks the findings against the `// want` annotations in both
// directions: every want fires, and nothing else does.
func TestAnalyzersOnFixtures(t *testing.T) {
	for _, spec := range fixtureSpecs() {
		spec := spec
		t.Run(spec.analyzer.Name, func(t *testing.T) {
			u, wants := loadFixture(t, spec)
			checkDiagnostics(t, Run(u, []*Analyzer{spec.analyzer}), wants)
		})
	}
}

// wantKey identifies one expectation instance.
type wantKey struct {
	file string
	line int
	idx  int
}

// loadFixture parses and typechecks the fixture package and collects its
// want annotations.
func loadFixture(t *testing.T, spec fixtureSpec) (*Unit, map[wantKey]*regexp.Regexp) {
	t.Helper()
	dir := filepath.Join("testdata", "src", spec.dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	wants := make(map[wantKey]*regexp.Regexp)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
		for i, line := range strings.Split(string(src), "\n") {
			for j, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, m[1], err)
				}
				wants[wantKey{name, i + 1, j}] = re
			}
		}
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(error) {}, // fixtures need not fully typecheck
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, _ := conf.Check(spec.path, fset, files, info)
	return &Unit{Path: spec.path, Fset: fset, Files: files, Pkg: pkg, Info: info}, wants
}

// checkDiagnostics matches findings against expectations in both directions.
func checkDiagnostics(t *testing.T, diags []Diagnostic, wants map[wantKey]*regexp.Regexp) {
	t.Helper()
	fired := make(map[wantKey]bool)
	for _, d := range diags {
		covered := false
		for key, re := range wants {
			if key.file == d.Pos.Filename && key.line == d.Pos.Line && re.MatchString(d.Message) {
				fired[key] = true
				covered = true
			}
		}
		if !covered {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, re := range wants {
		if !fired[key] {
			t.Errorf("%s:%d: want %q did not fire", key.file, key.line, re)
		}
	}
}

// TestNormalizePath pins the vet unit-path decorations the scope rules see.
func TestNormalizePath(t *testing.T) {
	cases := map[string]string{
		"tsue/internal/sim":                          "tsue/internal/sim",
		"tsue/internal/sim [tsue/internal/sim.test]": "tsue/internal/sim",
		"tsue/internal/sim.test":                     "tsue/internal/sim",
		"tsue/internal/wire_test":                    "tsue/internal/wire",
	}
	for in, want := range cases {
		if got := NormalizePath(in); got != want {
			t.Errorf("NormalizePath(%q) = %q, want %q", in, got, want)
		}
	}
}
