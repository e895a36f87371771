package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAnalyzer turns the CI "0 allocs/op" bench gate into a lint-time
// diagnostic that names the offending expression. Functions annotated
// //decaf:hotpath are the steady-state crossing path (descriptor-ring
// push/pop, payload-ring accessors, the proc-transport submit path); inside
// them the analyzer flags constructs that heap-allocate or capture:
//
//   - make, new, and &CompositeLit expressions;
//   - append (may grow its backing array);
//   - function literals that capture enclosing locals (closure allocation);
//   - interface boxing at call sites: a concrete, non-pointer-shaped value
//     passed where an interface is expected (pointer-shaped values — pointers,
//     chans, maps, funcs, and single-pointer-field structs — store directly
//     in the interface word, and bools and one-byte integers point into the
//     runtime's static table: neither allocates);
//   - non-constant string concatenation;
//   - range over a map (hidden iterator state and nondeterministic order have
//     no place on a latency-bound path).
//
// Two exemptions keep the rule honest on real code. Terminating branches
// (an if/else or case whose body ends in return, panic, os.Exit, or a decaf
// throw) are cold: failure exits are not steady state, and allocating an
// error there is fine. And a //decaf:allowalloc comment suppresses findings
// on its line (or, standalone, the next line) for allocations that are
// provably bounded — e.g. an append into a free list whose capacity was
// fixed at ring construction. The analysis is intraprocedural: callees are
// trusted to carry their own annotation.
var HotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "//decaf:hotpath functions must not heap-allocate on the steady-state path",
	Run:  runHotpath,
}

func runHotpath(p *Pass) {
	p.eachFuncDecl(func(decl *ast.FuncDecl) {
		fn, _ := p.Pkg.Info.Defs[decl.Name].(*types.Func)
		if fn == nil || !p.Pkg.Ann.HotpathFuncs[fn] {
			return
		}
		cold := coldRegions(decl.Body)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if cold[n] {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				p.checkHotCall(n)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						p.hotReportf(n, "composite literal escapes to the heap (&T{...})")
					}
				}
			case *ast.FuncLit:
				if capturesOuter(p.Pkg, n) {
					p.hotReportf(n, "function literal captures enclosing variables (closure allocation)")
				}
			case *ast.BinaryExpr:
				p.checkStringConcat(n)
			case *ast.RangeStmt:
				if _, ok := p.exprType(n.X).Underlying().(*types.Map); ok {
					p.hotReportf(n, "range over map on hot path (hidden iterator, nondeterministic order)")
				}
			}
			return true
		})
	})
}

// hotReportf reports unless the line carries //decaf:allowalloc.
func (p *Pass) hotReportf(n ast.Node, format string, args ...any) {
	if p.Pkg.Ann.allocAllowed(p.Pkg, n) {
		return
	}
	p.reportf(n.Pos(), format, args...)
}

// exprType returns the expression's type, or types.Typ[Invalid] when the
// checker recorded none.
func (p *Pass) exprType(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

func (p *Pass) checkHotCall(call *ast.CallExpr) {
	tv, ok := p.Pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	// Conversions: flag only conversions into interface types of values that
	// would box.
	if tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			p.checkBoxedArg(call.Args[0], tv.Type)
		}
		return
	}
	if tv.IsBuiltin() {
		name := builtinName(call.Fun)
		switch name {
		case "make":
			p.hotReportf(call, "make allocates on the hot path")
		case "new":
			p.hotReportf(call, "new allocates on the hot path")
		case "append":
			p.hotReportf(call, "append may grow its backing array on the hot path")
		}
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if call.Ellipsis != token.NoPos {
				pt = last
			} else if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		p.checkBoxedArg(arg, pt)
	}
}

// checkBoxedArg flags arg when storing it into an interface allocates.
func (p *Pass) checkBoxedArg(arg ast.Expr, iface types.Type) {
	at := p.exprType(arg)
	if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if types.IsInterface(at) || pointerShaped(at) || boxesStatic(at) {
		return
	}
	p.hotReportf(arg, "interface boxing allocates: %s value passed as %s", at, iface)
}

func (p *Pass) checkStringConcat(b *ast.BinaryExpr) {
	if b.Op != token.ADD {
		return
	}
	tv, ok := p.Pkg.Info.Types[b]
	if !ok || tv.Type == nil || tv.Value != nil {
		return
	}
	if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
		p.hotReportf(b, "string concatenation allocates on the hot path")
	}
}

func builtinName(fun ast.Expr) string {
	if id, ok := ast.Unparen(fun).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// pointerShaped reports whether a value of type t stores directly in an
// interface's data word without allocating: pointers, chans, maps, funcs,
// unsafe.Pointer, and single-field structs / one-element arrays thereof.
// boxesStatic reports whether the runtime boxes a t value without
// allocating: a bool or one-byte integer points into its static table of
// small values.
func boxesStatic(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Bool || b.Kind() == types.Int8 || b.Kind() == types.Uint8)
}

func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 1 && pointerShaped(u.Field(0).Type())
	case *types.Array:
		return u.Len() == 1 && pointerShaped(u.Elem())
	}
	return false
}

// capturesOuter reports whether the literal references variables declared
// outside itself (other than package-level state and struct fields) — the
// condition under which the compiler materialises a closure object.
func capturesOuter(pkg *Package, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil || v.IsField() {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level variable, not a capture
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal (params, locals)
		}
		captured = true
		return false
	})
	return captured
}

// coldRegions marks subtrees the hot-path rule skips: bodies of if/else
// branches and case clauses that terminate the function. Failure exits are
// not steady state.
func coldRegions(body *ast.BlockStmt) map[ast.Node]bool {
	cold := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			if blockTerminates(s.Body.List) {
				cold[s.Body] = true
			}
			if s.Else != nil && stmtTerminates(s.Else) {
				cold[s.Else] = true
			}
		case *ast.CaseClause:
			if blockTerminates(s.Body) {
				for _, st := range s.Body {
					cold[st] = true
				}
			}
		case *ast.CommClause:
			if blockTerminates(s.Body) {
				for _, st := range s.Body {
					cold[st] = true
				}
			}
		}
		return true
	})
	return cold
}
