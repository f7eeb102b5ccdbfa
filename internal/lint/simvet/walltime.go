package simvet

import (
	"go/ast"
	"go/types"
	"strings"
)

// WalltimeAnalyzer bans wall-clock reads and the global math/rand stream in
// internal/ packages. Everything under the simulator must derive time from
// the sim clock (sim.Env.Now) and randomness from an explicitly seeded
// source, or byte-identical runs per seed are gone.
var WalltimeAnalyzer = &Analyzer{
	Name: "walltime",
	Doc: "ban time.Now/Since/Sleep/After/Tick and the global math/rand " +
		"stream in internal packages: sim code takes time from the sim " +
		"clock and randomness from seeded sources",
	Run: runWalltime,
}

// wallFuncs are the time functions that read or wait on the real clock.
// time.Duration and the time constants stay available: virtual time is
// denominated in time.Duration throughout the repo.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// randConstructors build isolated, explicitly seeded generators and are the
// one sanctioned use of math/rand; everything else on the package selector
// is the shared global stream, whose sequence depends on every other caller.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// randTypes are math/rand type names: a `*rand.Rand` annotation references
// the package but not the global stream. The typed path recognizes any
// TypeName; this set is the syntactic fallback.
var randTypes = map[string]bool{
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
	"PCG": true, "ChaCha8": true,
}

func runWalltime(p *Pass) {
	if !inInternal(p.Path) {
		return
	}
	for _, f := range p.Files {
		imps := fileImports(f)
		for _, imp := range f.Imports {
			if imp.Name != nil && imp.Name.Name == "." {
				switch strings.Trim(imp.Path.Value, `"`) {
				case "time", "math/rand", "math/rand/v2":
					p.Reportf(imp.Pos(), "dot-import of %s in sim code hides wall-clock and global-rand calls from review", strings.Trim(imp.Path.Value, `"`))
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch {
			case p.isPkgIdent(imps, ident, "time") && wallFuncs[sel.Sel.Name]:
				p.Reportf(sel.Pos(), "wall-clock %s.%s in sim code: derive time from the sim clock (sim.Env.Now / Proc.Sleep)", ident.Name, sel.Sel.Name)
			case p.isPkgIdent(imps, ident, "math/rand", "math/rand/v2") &&
				!randConstructors[sel.Sel.Name] && !p.isTypeRef(sel):
				p.Reportf(sel.Pos(), "global math/rand stream (%s.%s) in sim code: use an explicitly seeded rand.New(rand.NewSource(seed))", ident.Name, sel.Sel.Name)
			}
			return true
		})
	}
}

// isTypeRef reports whether sel names a type (e.g. *rand.Rand in a field
// declaration) rather than a function or variable of the package.
func (p *Pass) isTypeRef(sel *ast.SelectorExpr) bool {
	if obj, ok := p.Info.Uses[sel.Sel]; ok {
		_, isType := obj.(*types.TypeName)
		return isType
	}
	return randTypes[sel.Sel.Name]
}
