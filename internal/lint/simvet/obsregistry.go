package simvet

import (
	"go/ast"
	"strings"
)

// ObsregistryAnalyzer is the TestStatsGuard rule as a real analyzer: metrics
// have exactly one home, the internal/obs registry. A new `...Stats` struct
// or a sync/atomic import anywhere else is a second, unaggregated source of
// truth that the unified metrics plane cannot see — so both are flagged
// outside internal/obs. The handful of pre-registry structs that survive for
// compatibility carry explicit //lint:allow obsregistry(...) annotations at
// their declarations instead of living in a frozen test allowlist.
var ObsregistryAnalyzer = &Analyzer{
	Name: "obsregistry",
	Doc: "no new ...Stats structs or sync/atomic outside internal/obs: " +
		"metrics belong on the obs registry",
	Run: runObsregistry,
}

func runObsregistry(p *Pass) {
	if !inInternal(p.Path) {
		return
	}
	if strings.HasSuffix(p.Path, "/internal/obs") || p.Path == "internal/obs" {
		return
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "sync/atomic" {
				p.Reportf(imp.Pos(), "sync/atomic outside internal/obs: counters belong on the obs registry (obs.Counter), which is already single-threaded under the sim kernel")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
				return true
			}
			if strings.HasSuffix(ts.Name.Name, "Stats") {
				p.Reportf(ts.Pos(), "struct %s outside internal/obs: register metrics on the obs registry instead of growing a parallel stats struct", ts.Name.Name)
			}
			return true
		})
	}
}
