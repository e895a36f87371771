package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Directive comments. Like //go: directives they are machine-readable
// markers, written without a space after the slashes so godoc hides them.
// They are the contract between the prose invariants this codebase states
// and the analyzers that enforce them:
//
//	//decaf:boundary   (package doc, func, type, or package-level var) —
//	                   decaf-side code: may reach kernel-side state only
//	                   through xpc.Runtime
//	//decaf:hotpath    (func) — steady-state path: no heap allocation
//	//decaf:shared     (struct field) — shm-resident: sync/atomic access only
//	//decaf:nucleus    (type) — kernel-side half of a split driver; boundary
//	                   code may not call into it directly
//	//decaf:allowalloc (line) — suppress hotpath findings on this (or, for a
//	                   standalone comment, the next) line, with a reason
const (
	dirBoundary   = "//decaf:boundary"
	dirHotpath    = "//decaf:hotpath"
	dirShared     = "//decaf:shared"
	dirNucleus    = "//decaf:nucleus"
	dirAllowAlloc = "//decaf:allowalloc"
)

// Annotations is the per-package index of decaf directives, resolved to
// type-checker objects so analyzers never re-match comments.
type Annotations struct {
	// PackageBoundary is set when any file's package doc carries
	// //decaf:boundary: every function in the package is then a boundary
	// subject.
	PackageBoundary bool
	// BoundaryFuncs are functions annotated //decaf:boundary directly.
	BoundaryFuncs map[*types.Func]bool
	// BoundaryTypes are types annotated //decaf:boundary: all their methods
	// are boundary subjects.
	BoundaryTypes map[*types.TypeName]bool
	// HotpathFuncs are functions annotated //decaf:hotpath.
	HotpathFuncs map[*types.Func]bool
	// NucleusTypes are types annotated //decaf:nucleus — the kernel-side
	// half of a split driver living in the same package as its decaf half.
	NucleusTypes map[*types.TypeName]bool
	// SharedFields are struct fields annotated //decaf:shared.
	SharedFields map[*types.Var]bool
	// AllowAlloc maps filename -> line numbers where //decaf:allowalloc
	// suppresses hotpath findings.
	AllowAlloc map[string]map[int]bool
}

// hasDirective reports whether the comment group carries the directive
// (exact token: the directive alone or followed by whitespace and a reason).
func hasDirective(g *ast.CommentGroup, dir string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if c.Text == dir || strings.HasPrefix(c.Text, dir+" ") {
			return true
		}
	}
	return false
}

// collectAnnotations scans a loaded package's syntax for decaf directives.
func collectAnnotations(pkg *Package) *Annotations {
	a := &Annotations{
		BoundaryFuncs: make(map[*types.Func]bool),
		BoundaryTypes: make(map[*types.TypeName]bool),
		HotpathFuncs:  make(map[*types.Func]bool),
		NucleusTypes:  make(map[*types.TypeName]bool),
		SharedFields:  make(map[*types.Var]bool),
		AllowAlloc:    make(map[string]map[int]bool),
	}
	for _, f := range pkg.Files {
		if hasDirective(f.Doc, dirBoundary) {
			a.PackageBoundary = true
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				if hasDirective(d.Doc, dirBoundary) {
					a.BoundaryFuncs[fn] = true
				}
				if hasDirective(d.Doc, dirHotpath) {
					a.HotpathFuncs[fn] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if tn == nil {
						continue
					}
					// A directive may sit on the type spec itself or, for
					// single-spec declarations, on the gen decl.
					if hasDirective(ts.Doc, dirBoundary) || hasDirective(d.Doc, dirBoundary) {
						a.BoundaryTypes[tn] = true
					}
					if hasDirective(ts.Doc, dirNucleus) || hasDirective(d.Doc, dirNucleus) {
						a.NucleusTypes[tn] = true
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if !hasDirective(field.Doc, dirShared) && !hasDirective(field.Comment, dirShared) {
							continue
						}
						for _, name := range field.Names {
							if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
								a.SharedFields[v] = true
							}
						}
					}
				}
			}
		}
		// allowalloc suppressions: a trailing comment suppresses its own
		// line; a standalone comment suppresses the next line. Recording
		// both is harmless — the directive line itself holds no code in the
		// trailing case.
		for _, g := range f.Comments {
			for _, c := range g.List {
				if c.Text != dirAllowAlloc && !strings.HasPrefix(c.Text, dirAllowAlloc+" ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := a.AllowAlloc[pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					a.AllowAlloc[pos.Filename] = lines
				}
				lines[pos.Line] = true
				lines[pos.Line+1] = true
			}
		}
	}
	return a
}

// allocAllowed reports whether a hotpath finding at pos is suppressed by an
// //decaf:allowalloc directive.
func (a *Annotations) allocAllowed(pkg *Package, pos ast.Node) bool {
	p := pkg.Fset.Position(pos.Pos())
	return a.AllowAlloc[p.Filename][p.Line]
}

// boundarySubject reports whether decl is decaf-side code the boundary
// analyzer must check: the package is annotated, the function is, or its
// receiver type is.
func (a *Annotations) boundarySubject(pkg *Package, decl *ast.FuncDecl) bool {
	fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
	if fn == nil {
		return false
	}
	if a.PackageBoundary || a.BoundaryFuncs[fn] {
		return true
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if tn := namedTypeName(recv.Type()); tn != nil && a.BoundaryTypes[tn] {
			return true
		}
	}
	return false
}

// namedTypeName unwraps pointers and returns the named type's object, or
// nil for unnamed types.
func namedTypeName(t types.Type) *types.TypeName {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u.Obj()
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}
