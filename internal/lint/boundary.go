package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BoundaryAnalyzer enforces the kernel/decaf split statically: code marked
// //decaf:boundary (a package, a function, every method of a type, or a
// package-level var declaration's initializers) is
// the user-level half of a driver and may reach kernel-side state only by
// crossing through the XPC runtime. Concretely, inside a boundary function:
//
//   - calling a function or method of a kernel-side package (internal/kernel,
//     internal/knet, internal/ksound, internal/kinput, internal/kusb,
//     internal/hw and its children) is a violation, except methods on
//     kernel.Context — the execution capability the runtime hands across;
//   - reading or writing a kernel-side package-level variable is a violation;
//   - calling into, or writing a field of, a type marked //decaf:nucleus
//     (the kernel-side half living in the same package) is a violation.
//
// There is no escape hatch: a function literal is checked like the code
// around it, and no xpc crossing takes a closure — a crossing passes a
// registered handler's handle, and a handler body's kernel-side work lives
// behind declared scalar downcalls, whose targets are nucleus code. That is what makes
// a handler table re-executable in the worker process. Types and constants
// are always fair game; they exist on both sides at compile time.
var BoundaryAnalyzer = &Analyzer{
	Name: "boundary",
	Doc:  "decaf-side code must reach kernel state only through named downcalls",
	Run:  runBoundary,
}

// kernelSideSuffixes identify kernel-side packages by import-path suffix,
// so the rule is module-path agnostic.
var kernelSideSuffixes = []string{
	"/internal/kernel",
	"/internal/knet",
	"/internal/ksound",
	"/internal/kinput",
	"/internal/kusb",
	"/internal/hw",
}

func isKernelSidePath(path string) bool {
	for _, s := range kernelSideSuffixes {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	// hw subpackages (register-level device models).
	return strings.Contains(path, "/internal/hw/")
}

func runBoundary(p *Pass) {
	p.eachFuncDecl(func(decl *ast.FuncDecl) {
		if p.Pkg.Ann.boundarySubject(p.Pkg, decl) {
			p.checkBoundaryBody(decl.Body)
		}
	})
	// A package-level var initializer runs decaf-side too when its package
	// or its declaration is marked: a handler registered as
	// var h = registry.Register(…, registry.Handler{Fn: func…}) has its
	// body there.
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR || !(p.Pkg.Ann.PackageBoundary || hasDirective(gd.Doc, dirBoundary)) {
				continue
			}
			for _, spec := range gd.Specs {
				for _, v := range spec.(*ast.ValueSpec).Values {
					p.checkBoundaryBody(v)
				}
			}
		}
	}
}

// checkBoundaryBody reports every boundary violation under root.
func (p *Pass) checkBoundaryBody(root ast.Node) {
	// Sel identifiers are reported at their SelectorExpr; skip the child
	// visit so a qualified use fires once.
	inSelector := make(map[*ast.Ident]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			p.checkBoundaryCall(n)
		case *ast.SelectorExpr:
			inSelector[n.Sel] = true
			p.checkBoundaryVar(n)
		case *ast.Ident:
			if !inSelector[n] {
				p.checkBoundaryIdent(n)
			}
		case *ast.AssignStmt:
			p.checkNucleusWrite(n)
		}
		return true
	})
}

// calleeFunc resolves a call expression to the function or method it
// invokes, or nil for builtins, conversions and dynamic calls.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pkg.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// receiverTypeName returns the named type a method is declared on, or nil.
func receiverTypeName(f *types.Func) *types.TypeName {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedTypeName(sig.Recv().Type())
}

func (p *Pass) checkBoundaryCall(call *ast.CallExpr) {
	fn := calleeFunc(p.Pkg, call)
	if fn == nil {
		return
	}
	if tn := receiverTypeName(fn); tn != nil && p.Pkg.Ann.NucleusTypes[tn] {
		p.reportf(call.Pos(), "calls nucleus method (%s).%s directly; route the call through an xpc.Runtime downcall", tn.Name(), fn.Name())
		return
	}
	if fn.Pkg() == nil || !isKernelSidePath(fn.Pkg().Path()) {
		return
	}
	// kernel.Context methods are the capability the runtime hands to the
	// executing side; invoking them is not a crossing.
	if tn := receiverTypeName(fn); tn != nil && tn.Name() == "Context" {
		return
	}
	p.reportf(call.Pos(), "calls kernel-side %s.%s directly; decaf code must cross through a named downcall", fn.Pkg().Name(), fn.Name())
}

// checkBoundaryVar flags selector uses of kernel-side package-level
// variables (pkg.Var form).
func (p *Pass) checkBoundaryVar(sel *ast.SelectorExpr) {
	v, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || v.Pkg() == nil || !isKernelSidePath(v.Pkg().Path()) {
		return
	}
	if v.Parent() != v.Pkg().Scope() {
		return // a field or local, not package state
	}
	p.reportf(sel.Pos(), "reaches kernel-side variable %s.%s directly; kernel state crosses only through xpc.Runtime", v.Pkg().Name(), v.Name())
}

// checkBoundaryIdent flags dot-import-free direct uses of kernel-side
// package-level variables referenced by bare identifier (possible within
// the kernel packages themselves, which are never boundary subjects, but
// kept for completeness).
func (p *Pass) checkBoundaryIdent(id *ast.Ident) {
	v, ok := p.Pkg.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg() == p.Pkg.Types || !isKernelSidePath(v.Pkg().Path()) {
		return
	}
	if v.Parent() != v.Pkg().Scope() {
		return
	}
	p.reportf(id.Pos(), "reaches kernel-side variable %s.%s directly; kernel state crosses only through xpc.Runtime", v.Pkg().Name(), v.Name())
}

// checkNucleusWrite flags assignments through a nucleus-typed expression:
// the decaf half mutating kernel-side driver state in place.
func (p *Pass) checkNucleusWrite(as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		s := p.Pkg.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			continue
		}
		tn := namedTypeName(s.Recv())
		if tn == nil || !p.Pkg.Ann.NucleusTypes[tn] {
			continue
		}
		p.reportf(sel.Pos(), "writes nucleus field (%s).%s directly; kernel-side state mutates only inside downcall bodies", tn.Name(), sel.Sel.Name)
	}
}
