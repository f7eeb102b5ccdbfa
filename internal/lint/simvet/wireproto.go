package simvet

import (
	"go/ast"
	"strings"
)

// WireprotoAnalyzer turns the wire-protocol conventions into checked
// properties. It enumerates the message set from the code itself — every
// struct with a `Type() Type` method is a message; there is no hand-written
// list to rot — and requires each payload-bearing message (a struct with a
// []byte data field) to be traced and end-to-end verified: it must carry a
// SpanCtx field (the tracer follows the data path hop by hop) and a Sum
// (CRC) field (corruption injected by the chaos fabric is detectable at
// every receiver). Control-plane messages without payloads ride the
// requester's span. Message sizes are pinned by the wire package's own size
// table, not here.
var WireprotoAnalyzer = &Analyzer{
	Name: "wireproto",
	Doc: "every payload-bearing wire message (struct with a Type() Type method " +
		"and a []byte field) must be SpanCtx-traced and Sum-checksummed",
	Run: runWireproto,
}

func runWireproto(p *Pass) {
	// The protocol lives in the package named "wire"; fixtures mirror that.
	if seg := p.Path[strings.LastIndex(p.Path, "/")+1:]; seg != "wire" {
		return
	}

	structs := make(map[string]*ast.TypeSpec) // all struct types
	messages := make(map[string]bool)         // structs with Type() Type

	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.TypeSpec:
				if _, ok := v.Type.(*ast.StructType); ok {
					structs[v.Name.Name] = v
				}
			case *ast.FuncDecl:
				if name := typeMethodRecv(v); name != "" {
					messages[name] = true
				}
			}
			return true
		})
	}

	for name := range messages {
		ts, ok := structs[name]
		if !ok {
			continue // Type() on a non-struct (e.g. an alias); out of scope
		}
		st := ts.Type.(*ast.StructType)
		hasSpan, hasSum, hasPayload := false, false, false
		for _, field := range st.Fields.List {
			if ident, ok := field.Type.(*ast.Ident); ok && ident.Name == "SpanCtx" {
				hasSpan = true
			}
			if isByteSlice(field.Type) {
				hasPayload = true
			}
			for _, fn := range field.Names {
				if strings.HasSuffix(fn.Name, "Sum") {
					hasSum = true
				}
			}
		}
		if hasPayload && !hasSpan {
			p.Reportf(ts.Pos(), "payload-bearing message %s (has a []byte field) has no SpanCtx field: the tracer cannot follow the data path across this hop", name)
		}
		if hasPayload && !hasSum {
			p.Reportf(ts.Pos(), "payload-bearing message %s (has a []byte field) has no Sum checksum field: chaos-injected corruption would be undetectable", name)
		}
	}
}

// typeMethodRecv returns the receiver base type name when fn is a
// `func (x X|*X) Type() Type` method, else "".
func typeMethodRecv(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 || fn.Name.Name != "Type" {
		return ""
	}
	ft := fn.Type
	if ft.Params.NumFields() != 0 || ft.Results.NumFields() != 1 {
		return ""
	}
	res, ok := ft.Results.List[0].Type.(*ast.Ident)
	if !ok || res.Name != "Type" {
		return ""
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	ident, ok := recv.(*ast.Ident)
	if !ok {
		return ""
	}
	return ident.Name
}

func isByteSlice(e ast.Expr) bool {
	arr, ok := e.(*ast.ArrayType)
	if !ok || arr.Len != nil {
		return false
	}
	ident, ok := arr.Elt.(*ast.Ident)
	return ok && ident.Name == "byte"
}
