package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// flow is what the unused rule learns from one set of files about values
// rather than names: the named types whose values become interface values
// (escape), and the fields whose values are read.
type flow struct {
	info *types.Info
	// escaped holds the origin of every named type a value escapes as,
	// directly or through a field, pointer or element.
	escaped map[*types.TypeName]bool
	// read holds the origin of every field some expression reads.
	read map[*types.Var]bool
	// writes holds the selectors that only store into their field.
	writes map[*ast.SelectorExpr]bool
	// seen guards escape against recursive types.
	seen map[types.Type]bool
}

// walkFlow records the escapes and field reads of files, type-checked into
// info.
func walkFlow(info *types.Info, files []*ast.File) *flow {
	f := &flow{
		info:    info,
		escaped: make(map[*types.TypeName]bool),
		read:    make(map[*types.Var]bool),
		writes:  make(map[*ast.SelectorExpr]bool),
		seen:    make(map[types.Type]bool),
	}
	for _, file := range files {
		f.walk(file, nil)
	}
	return f
}

// walk visits root, whose return statements return results. Parents are
// visited before their children, so a write is known before its selector.
func (f *flow) walk(root ast.Node, results *types.Tuple) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if fn, ok := f.info.Defs[n.Name].(*types.Func); ok && n.Body != nil {
				f.walk(n.Body, fn.Type().(*types.Signature).Results())
			}
			return false
		case *ast.FuncLit:
			f.walk(n.Body, f.info.TypeOf(n).(*types.Signature).Results())
			return false
		case *ast.Ident:
			// A generic body may convert a value of its type argument.
			if inst, ok := f.info.Instances[n]; ok {
				for i := 0; i < inst.TypeArgs.Len(); i++ {
					f.escape(inst.TypeArgs.At(i))
				}
			}
		case *ast.SelectorExpr:
			if sel := f.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !f.writes[n] {
				f.read[sel.Obj().(*types.Var).Origin()] = true
			}
		case *ast.AssignStmt:
			var targets []types.Type
			for i, lhs := range n.Lhs {
				f.write(lhs)
				if len(n.Rhs) == len(n.Lhs) {
					if arg := f.appendTo(n.Rhs[i]); arg != nil && types.ExprString(arg) == types.ExprString(ast.Unparen(lhs)) {
						f.writes[arg] = true
					}
				}
				targets = append(targets, f.info.TypeOf(lhs))
			}
			f.convertAll(targets, n.Rhs)
		case *ast.IncDecStmt:
			f.write(n.X)
		case *ast.ValueSpec:
			targets := make([]types.Type, len(n.Names))
			for i, id := range n.Names {
				if obj := f.info.Defs[id]; obj != nil {
					targets[i] = obj.Type()
				}
			}
			f.convertAll(targets, n.Values)
		case *ast.ReturnStmt:
			if results != nil {
				var targets []types.Type
				for i := 0; i < results.Len(); i++ {
					targets = append(targets, results.At(i).Type())
				}
				f.convertAll(targets, n.Results)
			}
		case *ast.CallExpr:
			f.call(n)
		case *ast.CompositeLit:
			f.composite(n)
		case *ast.SendStmt:
			if ch, ok := underlying(f.info.TypeOf(n.Chan)).(*types.Chan); ok {
				f.convert(ch.Elem(), n.Value)
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				f.readAll(f.info.TypeOf(n.X))
				f.readAll(f.info.TypeOf(n.Y))
			}
		case *ast.MapType:
			if m, ok := f.info.TypeOf(n).(*types.Map); ok {
				f.readAll(m.Key())
			}
		}
		return true
	})
}

// write marks the field selectors lhs stores into: x.f, and x.s of
// x.s.f where x.s is a struct value, not a pointer.
func (f *flow) write(lhs ast.Expr) {
	for {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || f.info.Selections[sel] == nil || f.info.Selections[sel].Kind() != types.FieldVal {
			return
		}
		f.writes[sel] = true
		if _, ok := underlying(f.info.TypeOf(sel.X)).(*types.Struct); !ok {
			return
		}
		lhs = sel.X
	}
}

// appendTo returns the field selector e appends to, as in append(x.f, …).
func (f *flow) appendTo(e ast.Expr) *ast.SelectorExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if b, ok := f.info.Uses[identOf(call.Fun)].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	sel, _ := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
	return sel
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// call records the conversions of a call's arguments to its parameters, or
// of an explicit conversion's operand.
func (f *flow) call(n *ast.CallExpr) {
	tv := f.info.Types[n.Fun]
	if tv.IsType() {
		if len(n.Args) == 1 {
			f.convert(tv.Type, n.Args[0])
		}
		return
	}
	sig, ok := underlying(tv.Type).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	var targets []types.Type
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if sig.Variadic() && i == params.Len()-1 && !n.Ellipsis.IsValid() {
			s, ok := underlying(t).(*types.Slice)
			if !ok {
				break
			}
			for len(targets) < len(n.Args) {
				targets = append(targets, s.Elem())
			}
			break
		}
		targets = append(targets, t)
	}
	f.convertAll(targets, n.Args)
}

// composite records the conversions of a composite literal's elements to
// its field, element and key types.
func (f *flow) composite(n *ast.CompositeLit) {
	t := underlying(f.info.TypeOf(n))
	if p, ok := t.(*types.Pointer); ok {
		t = underlying(p.Elem())
	}
	for i, elt := range n.Elts {
		val := elt
		kv, isKV := elt.(*ast.KeyValueExpr)
		if isKV {
			val = kv.Value
		}
		switch u := t.(type) {
		case *types.Struct:
			if !isKV {
				f.convert(u.Field(i).Type(), val)
			} else if v, ok := f.info.Uses[identOf(kv.Key)].(*types.Var); ok {
				f.convert(v.Type(), val)
			}
		case *types.Slice:
			f.convert(u.Elem(), val)
		case *types.Array:
			f.convert(u.Elem(), val)
		case *types.Map:
			f.convert(u.Elem(), val)
			if isKV {
				f.convert(u.Key(), kv.Key)
			}
		}
	}
}

// convertAll pairs targets with the values of exprs, a single call's
// results spread over several targets included.
func (f *flow) convertAll(targets []types.Type, exprs []ast.Expr) {
	if len(exprs) == 1 && len(targets) > 1 {
		if tuple, ok := f.info.TypeOf(exprs[0]).(*types.Tuple); ok {
			for i := 0; i < tuple.Len() && i < len(targets); i++ {
				f.convertType(targets[i], tuple.At(i).Type())
			}
			return
		}
	}
	for i, e := range exprs {
		if i < len(targets) {
			f.convert(targets[i], e)
		}
	}
}

func (f *flow) convert(target types.Type, e ast.Expr) {
	f.convertType(target, f.info.TypeOf(e))
}

// convertType records the escape of a src value stored as target.
func (f *flow) convertType(target, src types.Type) {
	if target == nil || src == nil || !types.IsInterface(target) || types.IsInterface(src) {
		return
	}
	f.escape(src)
}

// escape marks t and every type a walk of a t value reaches as escaped.
func (f *flow) escape(t types.Type) {
	if f.seen[t] {
		return
	}
	f.seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		f.escape(types.Unalias(t))
	case *types.Named:
		f.escaped[t.Origin().Obj()] = true
		f.escape(t.Underlying())
	case *types.Pointer:
		f.escape(t.Elem())
	case *types.Slice:
		f.escape(t.Elem())
	case *types.Array:
		f.escape(t.Elem())
	case *types.Map:
		f.escape(t.Key())
		f.escape(t.Elem())
	case *types.Struct:
		// fmt calls no method through an unexported field, and json skips
		// one.
		for i := 0; i < t.NumFields(); i++ {
			if fld := t.Field(i); fld.Exported() || fld.Embedded() {
				f.escape(fld.Type())
			}
		}
	}
}

// readAll marks read every field a comparison of t values compares.
func (f *flow) readAll(t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f.read[u.Field(i).Origin()] = true
			f.readAll(u.Field(i).Type())
		}
	case *types.Array:
		f.readAll(u.Elem())
	}
}

// underlying is t's underlying type, nil for nil.
func underlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}
