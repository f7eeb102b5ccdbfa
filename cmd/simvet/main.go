// Command simvet runs the repository's determinism & protocol linter suite
// (internal/lint/simvet) as a `go vet` tool:
//
//	go build -o /tmp/simvet ./cmd/simvet
//	go vet -vettool=/tmp/simvet ./...
//
// or, for convenience, let it re-exec go vet on itself:
//
//	go run ./cmd/simvet ./...
//
// It speaks the cmd/go unit-checker protocol directly (the -V=full / -flags
// handshake plus one vet.cfg JSON per package unit) instead of depending on
// golang.org/x/tools/go/analysis/unitchecker, so the tool builds in the
// dependency-free container this repo targets. Type information comes from
// the export-data files the go command already wrote to the build cache,
// via the stdlib gc importer.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"tsue/internal/lint/simvet"
)

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		// We accept no analyzer flags; tell cmd/go so with an empty list.
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		if err := runUnit(args[0]); err != nil {
			fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
			os.Exit(1)
		}
	case len(args) >= 1 && args[0] != "-h" && args[0] != "--help":
		reexec(args)
	default:
		fmt.Fprintln(os.Stderr, "usage: simvet <packages>  (runs `go vet -vettool=simvet <packages>`)")
		fmt.Fprintln(os.Stderr, "       go vet -vettool=$(which simvet) <packages>")
		for _, a := range simvet.Analyzers() {
			fmt.Fprintf(os.Stderr, "\n%s: %s\n", a.Name, a.Doc)
		}
		os.Exit(2)
	}
}

// printVersion implements the `-V=full` handshake: cmd/go keys its vet
// result cache on this line, so it must change exactly when the tool binary
// changes — hash the executable.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
		os.Exit(1)
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
		filepath.Base(exe), h.Sum(nil))
}

// reexec runs `go vet -vettool=<self> <args...>` so `go run ./cmd/simvet
// ./...` works as a one-liner.
func reexec(args []string) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
		os.Exit(1)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
		os.Exit(1)
	}
}

// vetConfig is the JSON cmd/go writes per compilation unit (vet.cfg).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

func runUnit(cfgPath string) error {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("%s: %w", cfgPath, err)
	}
	// cmd/go demands a vetx (facts) file for every unit, dependencies
	// included; simvet has no cross-package facts, so an empty one is
	// always correct and must be written on every exit path.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return err
		}
	}
	if cfg.VetxOnly {
		return nil // dependency unit: facts only, nothing to analyze
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil
			}
			return err
		}
		files = append(files, f)
	}

	pkg, info, err := typecheck(&cfg, fset, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil
		}
		return fmt.Errorf("typecheck %s: %w", cfg.ImportPath, err)
	}

	unit := &simvet.Unit{
		Path:  simvet.NormalizePath(cfg.ImportPath),
		Fset:  fset,
		Files: files,
		Pkg:   pkg,
		Info:  info,
	}
	diags := simvet.Run(unit, simvet.Analyzers())
	if len(diags) == 0 {
		return nil
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	os.Exit(2) // the unit-checker exit code for "diagnostics reported"
	return nil
}

// typecheck loads the unit's dependencies from the export-data files listed
// in the vet config and typechecks the parsed files with the stdlib gc
// importer.
func typecheck(cfg *vetConfig, fset *token.FileSet, files []*ast.File) (*types.Package, *types.Info, error) {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	tcfg := &types.Config{
		Importer:  importer.ForCompiler(fset, cfg.Compiler, lookup),
		GoVersion: cfg.GoVersion,
		// Keep going on errors: a partial Info still lets syntactic
		// analyzers and most typed checks do useful work.
		Error: func(error) {},
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}
