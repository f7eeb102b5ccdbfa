package simvet

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// SentinelerrAnalyzer enforces sentinel-error discipline. The cluster layer
// classifies retryable vs fatal outcomes with errors.Is against sentinels;
// RPC responses carry the handler's error value, so a sentinel wrapped with
// %w on one node still matches on the other. Hence a raw `err == ErrX` or a
// `switch err` over exported Err* sentinels (they stop matching the moment
// anyone wraps), and — outside tests — a strings.Contains, HasPrefix,
// HasSuffix or Index over an .Error() call (it matches what an error says,
// not which one it is) are flagged. In internal/cluster, returning a bare
// errors.New(...) is flagged too: an ad-hoc error cannot be classified by
// any retry policy; use a package sentinel or wrap one with %w.
var SentinelerrAnalyzer = &Analyzer{
	Name: "sentinelerr",
	Doc: "require errors.Is for exported Err* sentinels (no == / switch err), ban substring " +
		"tests on an error's text outside tests, and ban errors.New at internal/cluster return sites",
	Run: runSentinelerr,
}

// textMatchers are the strings functions that search one string for another.
var textMatchers = map[string]bool{"Contains": true, "HasPrefix": true, "HasSuffix": true, "Index": true}

func runSentinelerr(p *Pass) {
	if !inInternal(p.Path) {
		return
	}
	inCluster := strings.HasSuffix(p.Path, "/internal/cluster") || p.Path == "internal/cluster"
	for _, f := range p.Files {
		imps := fileImports(f)
		testFile := isTestFile(p.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				sel, _ := v.Fun.(*ast.SelectorExpr)
				if testFile || sel == nil || !textMatchers[sel.Sel.Name] || !slices.ContainsFunc(v.Args, isErrorText) {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && p.isPkgIdent(imps, pkg, "strings") {
					p.Reportf(v.Pos(), "strings.%s on an error's text: classify with errors.Is against a sentinel (responses carry the error value across hops)", sel.Sel.Name)
				}
			case *ast.BinaryExpr:
				if v.Op != token.EQL && v.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{v.X, v.Y} {
					if name := sentinelName(side); name != "" {
						p.Reportf(v.Pos(), "%s compared with %s: sentinel comparisons must use errors.Is so wrapped errors still classify", name, v.Op)
						break
					}
				}
			case *ast.SwitchStmt:
				if v.Tag == nil {
					return true
				}
				for _, stmt := range v.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if name := sentinelName(e); name != "" {
							p.Reportf(cc.Pos(), "switch case on sentinel %s compares with ==; use an if/else chain of errors.Is", name)
						}
					}
				}
			case *ast.ReturnStmt:
				if !inCluster || testFile {
					return true
				}
				for _, res := range v.Results {
					call, ok := res.(*ast.CallExpr)
					if !ok {
						continue
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "New" {
						continue
					}
					pkgIdent, ok := sel.X.(*ast.Ident)
					if ok && p.isPkgIdent(imps, pkgIdent, "errors") {
						p.Reportf(call.Pos(), "errors.New at a cluster return site creates an error no retry policy can classify; return a package Err* sentinel or wrap one with fmt.Errorf(\"...: %%w\", ErrX)")
					}
				}
			}
			return true
		})
	}
}

// isErrorText reports whether e is a call x.Error().
func isErrorText(e ast.Expr) bool {
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 0 {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Error"
	}
	return false
}

// sentinelName returns the exported Err* sentinel name the expression refers
// to, or "". Matches both local (ErrCorrupt) and qualified (wire.ErrShort)
// references; "Error"-style names (lowercase after Err) do not match.
func sentinelName(e ast.Expr) string {
	var name string
	switch v := e.(type) {
	case *ast.Ident:
		name = v.Name
	case *ast.SelectorExpr:
		name = v.Sel.Name
	default:
		return ""
	}
	if len(name) > 3 && strings.HasPrefix(name, "Err") &&
		name[3] >= 'A' && name[3] <= 'Z' {
		return name
	}
	return ""
}
