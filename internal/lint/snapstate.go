package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// SnapState cross-checks the functions that write state into bytes against
// the functions that read it back, field by field: a field added to one
// side and forgotten on the other fails here, not at the first divergent
// resume. A function outside the codec package (any package named
// "codec") is a writer when it calls a codec Encoder or passes one on, and
// a reader when it does so with a Decoder. A field a writer encodes — reads
// in the arguments of such a call — must be referenced by some reader, or
// it is encoded but never restored. A field a reader restores — assigns
// from an expression that reads a Decoder, directly or as a keyed literal
// element — must be referenced by some writer, or it is restored but never
// encoded. A method that restores its receiver is a reader of its own;
// fields a reader only consults, or sets from derived values, are outside
// both rules.
var SnapState = &Analyzer{
	Name:   "snapstate",
	Doc:    "verifies every field the state writers encode is restored by a reader, and every restored field is encoded",
	Global: true,
	Run:    runSnapState,
}

// snapSides is what the functions contribute to the check.
type snapSides struct{ encoded, restored, usedByWriter, usedByRd map[*types.Var]bool }

func runSnapState(pass *Pass) error {
	analyzed := make(map[*types.Package]bool, len(pass.All))
	for _, pkg := range pass.All {
		analyzed[pkg.Types] = true
	}
	sides := snapSides{
		encoded:      make(map[*types.Var]bool),
		restored:     make(map[*types.Var]bool),
		usedByWriter: make(map[*types.Var]bool),
		usedByRd:     make(map[*types.Var]bool),
	}
	for _, pkg := range pass.All {
		if pkg.Name == "codec" {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					collectSnapSides(pkg.Info, fd.Body, &sides)
				}
			}
		}
	}
	report := func(fields map[*types.Var]bool, counterpart map[*types.Var]bool, format string) {
		var found []*types.Var
		for f := range fields {
			if !counterpart[f] && analyzed[f.Pkg()] {
				found = append(found, f)
			}
		}
		sort.Slice(found, func(i, j int) bool { return found[i].Pos() < found[j].Pos() })
		for _, f := range found {
			pass.Reportf(f.Pos(), format, f.Name())
		}
	}
	report(sides.encoded, sides.usedByRd,
		"field %s is encoded but never restored: no state reader references it, so a restore silently zeroes it")
	report(sides.restored, sides.usedByWriter,
		"field %s is restored but never encoded: no state writer references it, so a restore reads what was never written")
	return nil
}

// collectSnapSides classifies one function body and records its fields.
func collectSnapSides(info *types.Info, body *ast.BlockStmt, sides *snapSides) {
	writer, reader := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			writer = writer || callUses(info, call, "Encoder")
			reader = reader || callUses(info, call, "Decoder")
		}
		return true
	})
	if !writer && !reader {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if f := fieldOf(info, n); f != nil {
				if writer {
					sides.usedByWriter[f] = true
				}
				if reader {
					sides.usedByRd[f] = true
				}
			}
		case *ast.CallExpr:
			if writer && callUses(info, n, "Encoder") {
				for _, arg := range n.Args {
					addFields(info, arg, sides.encoded)
				}
			}
		case *ast.AssignStmt:
			if !reader {
				break
			}
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				if _, lit := ast.Unparen(rhs).(*ast.CompositeLit); lit {
					continue // its keyed fields count, not the target
				}
				if f := rootField(info, lhs); f != nil && readsDecoder(info, rhs) {
					sides.restored[f] = true
				}
			}
		case *ast.KeyValueExpr:
			if !reader {
				break
			}
			if key, ok := n.Key.(*ast.Ident); ok && readsDecoder(info, n.Value) {
				if f := fieldOf(info, key); f != nil {
					sides.restored[f] = true
				}
			}
		}
		return true
	})
}

// codecType reports "Encoder" or "Decoder" when t is (a pointer to) that
// type of a package named codec, and "" otherwise.
func codecType(t types.Type) string {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Name() != "codec" {
		return ""
	}
	return n.Obj().Name()
}

// callUses reports whether call is a method on a codec side (Encoder or
// Decoder) or passes one as an argument.
func callUses(info *types.Info, call *ast.CallExpr, side string) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && codecType(info.TypeOf(sel.X)) == side {
		return true
	}
	for _, arg := range call.Args {
		if codecType(info.TypeOf(arg)) == side {
			return true
		}
	}
	return false
}

// readsDecoder reports whether evaluating e reads from a Decoder.
func readsDecoder(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && callUses(info, call, "Decoder") {
			found = true
		}
		return !found
	})
	return found
}

// addFields records every field e reads.
func addFields(info *types.Info, e ast.Expr, into map[*types.Var]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if f := fieldOf(info, id); f != nil {
				into[f] = true
			}
		}
		return true
	})
}

// rootField returns the field an assignment target finally names: Steps for a.hot.Steps, Mail for s.Mail[i][j].
func rootField(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return fieldOf(info, x.Sel)
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// fieldOf returns the struct field id refers to, or nil.
func fieldOf(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}
