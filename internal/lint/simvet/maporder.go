package simvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MaporderAnalyzer flags `range` over maps in kernel-owned packages when the
// loop body has order-dependent effects: Go randomizes map iteration order
// per process, so a fan-out, an append that is later encoded, an overwrite
// of outer state, or floating-point accumulation inside such a loop makes
// two runs of the same seed diverge. The fix is to collect the keys, sort
// them, and range over the sorted slice (that collection loop itself is
// recognized and exempt, provided the slice is actually sorted afterwards).
//
// Order-independent bodies stay quiet: integer accumulation (n += v, n++),
// writes indexed by the loop key (out[k] = f(v)), body-local variables, and
// the safe builtins (len, cap, min, max, delete, make, new).
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration with order-dependent effects (sends, calls, " +
		"appends, overwrites, float accumulation) in kernel-owned packages " +
		"unless the keys are sorted first",
	Run: runMaporder,
}

func runMaporder(p *Pass) {
	if !isKernel(p.Path) {
		return
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		imps := fileImports(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := p.Info.TypeOf(rs.X); t == nil || !isMapType(t) {
					return true
				}
				p.checkMapRange(rs, fn, imps)
				return true
			})
		}
	}
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func (p *Pass) checkMapRange(rs *ast.RangeStmt, fn *ast.FuncDecl, imps map[string]string) {
	keyObj := p.rangeVarObj(rs.Key)
	valObj := p.rangeVarObj(rs.Value)

	var reported bool
	report := func(pos token.Pos, format string, args ...any) {
		if !reported {
			reported = true
			p.Reportf(pos, format, args...)
		}
	}
	// collects are outer slices fed by `s = append(s, ...)` — the
	// key-collection idiom. They are fine exactly when the slice is sorted
	// after the loop; otherwise the append order leaks map order.
	type collect struct {
		obj types.Object
		pos token.Pos
	}
	var collects []collect
	// handled marks append calls consumed by the assignment analysis so the
	// generic call check does not re-flag them.
	handled := make(map[ast.Node]bool)

	checkWrite := func(lhs ast.Expr, tok token.Token, rhs ast.Expr, pos token.Pos) {
		// Commutative integer accumulation (n += v, stats.Count++, through
		// any lvalue shape) is order-independent: integer addition is exact
		// and associative. Float accumulation is not and falls through.
		switch tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
			token.AND_ASSIGN, token.XOR_ASSIGN, token.INC, token.DEC:
			if t := p.Info.TypeOf(lhs); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					return
				}
			}
		}
		switch t := lhs.(type) {
		case *ast.Ident:
			if t.Name == "_" {
				return
			}
			obj := p.Info.ObjectOf(t)
			if obj == nil || declaredWithin(obj, rs.Body) {
				return
			}
			if call, ok := rhs.(*ast.CallExpr); ok && p.builtinName(call) == "append" &&
				len(call.Args) > 0 && p.sameObj(call.Args[0], obj) {
				handled[call] = true
				collects = append(collects, collect{obj, pos})
				return
			}
			switch tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
				token.AND_ASSIGN, token.XOR_ASSIGN, token.INC, token.DEC:
				report(pos, "accumulation into %s of type %s inside map iteration is order-dependent (only integer accumulation commutes exactly); sort the keys first", obj.Name(), obj.Type())
				return
			}
			report(pos, "assignment to %s (declared outside the loop) inside iteration over map %s depends on iteration order; sort the keys first", obj.Name(), types.ExprString(rs.X))
		case *ast.IndexExpr:
			if keyObj != nil && p.sameObj(t.Index, keyObj) {
				return // one write per distinct key: order-independent
			}
			report(pos, "indexed write not keyed by the loop key inside iteration over map %s depends on iteration order; sort the keys first", types.ExprString(rs.X))
		case *ast.SelectorExpr:
			// A field write through the loop key/value variable touches a
			// distinct object per iteration (n.stats = Stats{} resets each
			// node): order-independent as long as the RHS is, and RHS
			// dependence on mutated outer state is flagged at that state's
			// own mutation site.
			if base, ok := t.X.(*ast.Ident); ok {
				if (keyObj != nil && p.Info.ObjectOf(base) == keyObj) ||
					(valObj != nil && p.Info.ObjectOf(base) == valObj) {
					return
				}
			}
			report(pos, "write through %s inside iteration over map %s depends on iteration order; sort the keys first", types.ExprString(lhs), types.ExprString(rs.X))
		default:
			report(pos, "write through %s inside iteration over map %s depends on iteration order; sort the keys first", types.ExprString(lhs), types.ExprString(rs.X))
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				return true // new body-locals; still descend into the RHS
			}
			for i, lhs := range v.Lhs {
				var rhs ast.Expr
				if i < len(v.Rhs) {
					rhs = v.Rhs[i]
				}
				checkWrite(lhs, v.Tok, rhs, v.Pos())
			}
		case *ast.IncDecStmt:
			checkWrite(v.X, token.INC, nil, v.Pos())
		case *ast.SendStmt:
			report(v.Pos(), "send inside iteration over map %s fans out in map order; sort the keys first", types.ExprString(rs.X))
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				report(v.Pos(), "channel receive inside iteration over map %s is order-dependent; sort the keys first", types.ExprString(rs.X))
			}
		case *ast.CallExpr:
			if handled[v] {
				return true
			}
			if name := p.builtinName(v); name != "" {
				switch name {
				case "len", "cap", "min", "max", "delete", "make", "new", "append":
					// append reaching here feeds no outer variable (its
					// result is dropped or body-local): order cannot leak.
					return true
				}
				report(v.Pos(), "builtin %s inside iteration over map %s has order-dependent effects; sort the keys first", name, types.ExprString(rs.X))
				return false
			}
			if p.isConversion(v) {
				return true
			}
			report(v.Pos(), "call to %s inside iteration over map %s runs in map order (side effects, sends, scheduling); sort the keys first", types.ExprString(v.Fun), types.ExprString(rs.X))
			return false
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				if (keyObj != nil && p.usesObj(res, keyObj)) || (valObj != nil && p.usesObj(res, valObj)) {
					report(v.Pos(), "returning a value derived from iteration over map %s picks an arbitrary entry; sort the keys first", types.ExprString(rs.X))
				}
			}
		}
		return true
	})
	if reported {
		return
	}
	for _, c := range collects {
		if !p.sortedAfter(c.obj, rs.End(), fn, imps) {
			p.Reportf(c.pos, "slice %s collects entries in map order and is not sorted before use; sort it (sort.Slice / slices.Sort) after the loop", c.obj.Name())
			return
		}
	}
}

// rangeVarObj resolves a range clause variable to its object (nil for
// missing or blank variables).
func (p *Pass) rangeVarObj(e ast.Expr) types.Object {
	ident, ok := e.(*ast.Ident)
	if !ok || ident.Name == "_" {
		return nil
	}
	return p.Info.ObjectOf(ident)
}

func (p *Pass) sameObj(e ast.Expr, obj types.Object) bool {
	ident, ok := e.(*ast.Ident)
	return ok && p.Info.ObjectOf(ident) == obj
}

func (p *Pass) usesObj(e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if ident, ok := n.(*ast.Ident); ok && p.Info.ObjectOf(ident) == obj {
			found = true
		}
		return !found
	})
	return found
}

func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// builtinName returns the name of the builtin being called, or "".
func (p *Pass) builtinName(call *ast.CallExpr) string {
	ident, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if obj, ok := p.Info.Uses[ident]; ok {
		if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
			return ident.Name
		}
	}
	return ""
}

func (p *Pass) isConversion(call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// sortFuncs lists the sorting entry points the collect exemption accepts,
// per package.
var sortFuncs = map[string]map[string]bool{
	"sort": {"Strings": true, "Ints": true, "Float64s": true, "Slice": true,
		"SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortedAfter reports whether obj is passed to a sort call after pos within
// the enclosing function.
func (p *Pass) sortedAfter(obj types.Object, pos token.Pos, fn *ast.FuncDecl, imps map[string]string) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			pkgIdent, ok := fun.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkg := imps[pkgIdent.Name]
			if fns, ok := sortFuncs[pkg]; ok && fns[fun.Sel.Name] && p.usesObj(call.Args[0], obj) {
				found = true
			}
		case *ast.Ident:
			// Local sorting helpers (sortBlocks(blks), sortNodes(ids), ...)
			// count too: the repo's idiom for comparator-heavy key types.
			if strings.HasPrefix(fun.Name, "sort") && p.usesObj(call.Args[0], obj) {
				found = true
			}
		}
		return true
	})
	return found
}
