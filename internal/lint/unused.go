package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// UnusedAnalyzer reports package-level API that nothing calls and struct
// fields that nothing reads, in a non-main module package outside testdata.
//
// A func, method, type, var or const is reported unless one of these
// references it:
//
//   - any non-test file of the module (cmd/, examples/ and benchmark/
//     included), outside the identifier's own declaration and the receiver
//     lists of its methods;
//   - for an exported identifier, a _test.go file of another package — a
//     cross-package test accessor cannot move into an export_test.go;
//   - for a method, an interface its type provides it to, if the type
//     escapes: a named interface of any package in the import closure
//     (error, fmt.Stringer, sort.Interface, …) or an interface literal of
//     the module's non-test code.
//
// A type escapes when code converts a value of it to an interface type: by
// assignment, var initialisation, argument (variadic included), return,
// composite-literal element, send or explicit conversion. A struct that
// escapes lets the types of its exported and embedded fields escape too (fmt
// and encoding/json walk those; neither calls a method through an unexported
// field), and so do pointer, slice, array and map element types; every type
// argument of an instantiation escapes (the generic body may convert it). An
// escape in the type's own package's tests reaches its methods for the "own
// tests" message only, one in another package's tests reaches its exported
// methods. A type that never becomes an interface value keeps only its
// direct references.
//
// A field of a package-level struct type (embedded fields aside) is read by
// any use of x.f except a write: the left side of = or op=, ++ and --, a
// composite-literal key, the inner x.f of x.f = append(x.f, …), and x.s of a
// write to x.s.f when x.s is a struct value. A method call, an atomic or
// &x.f is a read; so is == on its struct, and its struct's being a map key.
// An unexported field is reported when no non-test code reads it; an
// exported one when nothing in the module reads it, tests included, it has
// no struct tag and its struct never escapes.
//
// The identifier's own package's tests do not count: API that only they
// reach is deleted with them, or moves into an export_test.go. A generic
// instantiation resolves to its origin. Interface methods are out of scope.
// References are indexed once over the whole module, test files
// type-checked as the go tool builds them, so checking one package reports
// exactly its share of the whole-module run.
var UnusedAnalyzer = &Analyzer{
	Name: "unused",
	Doc:  "every package-level identifier is referenced outside its declaration and its own package's tests, and every field is read",
	Run:  runUnused,
}

func runUnused(p *Pass) {
	if p.Pkg.Types.Name() == "main" || p.Pkg.inTestdata() {
		return
	}
	idx, err := p.Pkg.mod.references()
	if err != nil {
		p.reportf(p.Pkg.Files[0].Package, "cannot index the module's references: %v", err)
		return
	}
	for _, d := range declaredObjects(p.Pkg) {
		if idx.live[d.obj] {
			continue
		}
		what := fmt.Sprintf("%s %s", objectKind(d.obj), objectName(d.obj))
		if idx.ownTests[objectKey(d.obj)] {
			p.reportf(d.name.Pos(), "%s is referenced only by its own package's tests: delete it with them, or move it into an export_test.go", what)
		} else {
			p.reportf(d.name.Pos(), "%s has no reference outside its own declaration: delete it", what)
		}
	}
	for _, d := range declaredFields(p.Pkg) {
		read := idx.reads[d.v.Pos()]
		what := "field " + d.path
		switch {
		case d.v.Exported():
			if read == 0 && !d.tagged && idx.escapes[d.owner.Pos()] == 0 {
				p.reportf(d.v.Pos(), "%s is read nowhere in the module, has no tag, and its struct never becomes an interface value: delete it with the writes that feed it", what)
			}
		case read&inCode != 0:
		case read&inOwnTests != 0:
			p.reportf(d.v.Pos(), "%s is read only by its own package's tests: delete it with the writes that feed it, and test what the code does with them instead", what)
		default:
			p.reportf(d.v.Pos(), "%s is never read: delete it with the writes that feed it", what)
		}
	}
}

// inTestdata reports whether the package lies under a testdata directory of
// its module: a fixture, never API.
func (pkg *Package) inTestdata() bool {
	rel, err := filepath.Rel(pkg.mod.Root, pkg.Dir)
	if err != nil {
		return false
	}
	for _, elem := range strings.Split(filepath.ToSlash(rel), "/") {
		if elem == "testdata" {
			return true
		}
	}
	return false
}

// declared is one package-level object with the node that declares it.
type declared struct {
	obj  types.Object
	name *ast.Ident
	// node spans the whole declaration; references inside it are the
	// declaration's own.
	node ast.Node
}

// declaredObjects lists the package's funcs, methods, types, vars and
// consts in source order, skipping init, blank names and the func main.
func declaredObjects(pkg *Package) []declared {
	var out []declared
	add := func(id *ast.Ident, node ast.Node) {
		if id.Name == "_" {
			return
		}
		if obj := pkg.Info.Defs[id]; obj != nil {
			out = append(out, declared{obj: obj, name: id, node: node})
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
					continue
				}
				add(d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s)
						}
					}
				}
			}
		}
	}
	return out
}

func objectKind(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if receiverTypeName(o) != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// objectName qualifies a method with its receiver type: (*Ring).Reset.
func objectName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || receiverTypeName(fn) == nil {
		return obj.Name()
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	return fmt.Sprintf("(%s).%s", types.TypeString(recv, types.RelativeTo(obj.Pkg())), obj.Name())
}

// declaredField is one named, non-embedded field of a package-level struct
// type, nested anonymous structs included.
type declaredField struct {
	v *types.Var
	// owner is the package-level type the field belongs to.
	owner *types.TypeName
	// path names the field from its owner: T.f, or T.inner.n for a field
	// of an anonymous struct field.
	path   string
	tagged bool
}

func declaredFields(pkg *Package) []declaredField {
	var out []declaredField
	var walk func(owner *types.TypeName, prefix string, st *ast.StructType)
	walk = func(owner *types.TypeName, prefix string, st *ast.StructType) {
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				v, ok := pkg.Info.Defs[id].(*types.Var)
				if !ok || id.Name == "_" {
					continue
				}
				out = append(out, declaredField{v: v, owner: owner, path: prefix + "." + id.Name, tagged: f.Tag != nil})
				if inner, ok := f.Type.(*ast.StructType); ok {
					walk(owner, prefix+"."+id.Name, inner)
				}
			}
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok && ts.Name.Name != "_" {
					walk(pkg.Info.Defs[ts.Name].(*types.TypeName), ts.Name.Name, st)
				}
			}
		}
	}
	return out
}

// refIndex is the module-wide reference index behind the unused rule.
type refIndex struct {
	// live holds every object something counted references.
	live map[types.Object]bool
	// ownTests holds the objectKey of every object its own package's tests
	// reference.
	ownTests map[string]bool
	// escapes holds where values of a type become interface values, reads
	// where a field is read. Both are keyed by the declaring position of
	// the type name or field, which a package and its test build share.
	escapes map[token.Pos]site
	reads   map[token.Pos]site
}

// site classes the code a use of a type or field sits in, relative to the
// package that declares it.
type site uint8

const (
	inCode site = 1 << iota
	inOwnTests
	inOtherTests
)

// references builds the module's reference index once.
func (m *Module) references() (*refIndex, error) {
	if m.refs == nil && m.refsErr == nil {
		m.refs, m.refsErr = m.indexReferences()
	}
	return m.refs, m.refsErr
}

func (m *Module) indexReferences() (*refIndex, error) {
	pkgs, err := m.Packages(m.Root, "./...")
	if err != nil {
		return nil, err
	}
	idx := &refIndex{
		live:     make(map[types.Object]bool),
		ownTests: make(map[string]bool),
		escapes:  make(map[token.Pos]site),
		reads:    make(map[token.Pos]site),
	}
	own := make(map[types.Object]ast.Node)
	recv := make(map[*ast.Ident]bool)
	for _, pkg := range pkgs {
		for _, d := range declaredObjects(pkg) {
			own[d.obj] = d.node
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			obj = m.moduleLevel(obj)
			if obj == nil || recv[id] {
				continue
			}
			if n := own[obj]; n != nil && n.Pos() <= id.Pos() && id.Pos() < n.End() {
				continue
			}
			idx.live[obj] = true
		}
		fl := walkFlow(pkg.Info, pkg.Files)
		for tn := range fl.escaped {
			idx.escapes[tn.Pos()] |= inCode
		}
		for v := range fl.read {
			idx.reads[v.Pos()] |= inCode
		}
		if err := m.indexTests(pkg, idx); err != nil {
			return nil, err
		}
	}
	reachThroughInterfaces(pkgs, idx)
	return idx, nil
}

// indexTests type-checks the package's test files as the go tool builds
// them — the in-package ones together with the package, the external ones
// against that test build — and records what they reference.
func (m *Module) indexTests(pkg *Package, idx *refIndex) error {
	bp, err := build.Default.ImportDir(pkg.Dir, 0)
	if err != nil {
		return err
	}
	inPkg, err := m.parseFiles(pkg.Dir, bp.TestGoFiles, 0)
	if err != nil {
		return err
	}
	xtest, err := m.parseFiles(pkg.Dir, bp.XTestGoFiles, 0)
	if err != nil {
		return err
	}
	testBuild := pkg.Types
	if len(inPkg) > 0 {
		files := append(append([]*ast.File(nil), pkg.Files...), inPkg...)
		if testBuild, err = m.checkTests(pkg.Path, files, inPkg, m, idx); err != nil {
			return err
		}
	}
	if len(xtest) > 0 {
		imp := importerFunc(func(path string) (*types.Package, error) {
			if path == pkg.Path {
				return testBuild, nil
			}
			return m.Import(path)
		})
		if _, err := m.checkTests(pkg.Path+"_test", xtest, xtest, imp, idx); err != nil {
			return err
		}
	}
	return nil
}

// parseFiles parses the named files of dir, without object resolution.
func (m *Module) parseFiles(dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, mode|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// checkTests type-checks files as package path and records the references
// of the test files among them: to its own package's objects as ownTests,
// to another package's exported objects as live. Their escapes and field
// reads are recorded as the own or another package's tests'.
func (m *Module) checkTests(path string, files, tests []*ast.File, imp types.Importer, idx *refIndex) (*types.Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	tpkg, err := (&types.Config{Importer: imp}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s tests: %w", path, err)
	}
	ownPath := strings.TrimSuffix(path, "_test")
	for _, f := range tests {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := m.moduleLevel(info.Uses[id])
			switch {
			case obj == nil:
			case obj.Pkg().Path() == ownPath:
				idx.ownTests[objectKey(obj)] = true
			case obj.Exported():
				idx.live[obj] = true
			}
			return true
		})
	}
	class := func(obj types.Object) site {
		if obj.Pkg() != nil && obj.Pkg().Path() == ownPath {
			return inOwnTests
		}
		return inOtherTests
	}
	fl := walkFlow(info, tests)
	for tn := range fl.escaped {
		idx.escapes[tn.Pos()] |= class(tn)
	}
	for v := range fl.read {
		idx.reads[v.Pos()] |= class(v)
	}
	return tpkg, nil
}

// moduleLevel returns the package-level object or method obj stands for —
// a generic instantiation's origin — or nil for locals, fields and objects
// outside the module. A test build of a package has objects of its own,
// which its own tests' references resolve to; every other package's
// objects are the module's non-test ones.
func (m *Module) moduleLevel(obj types.Object) types.Object {
	if obj == nil || obj.Pkg() == nil || m.pkgs[obj.Pkg().Path()] == nil {
		return nil
	}
	if fn, ok := obj.(*types.Func); ok {
		if fn = fn.Origin(); receiverTypeName(fn) != nil {
			return fn
		}
		obj = fn
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	return obj
}

// objectKey names obj the same way in a package and in its test build.
func objectKey(obj types.Object) string {
	return obj.Pkg().Path() + "." + objectName(obj)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reachThroughInterfaces marks live every method an escaping module type
// provides to an interface it satisfies: a call through the interface
// reaches it. A type that escapes only in tests reaches its methods as a
// test reference does.
func reachThroughInterfaces(pkgs []*Package, idx *refIndex) {
	ifaces := interfacesIn(pkgs)
	var subjects []*types.Pointer
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
				subjects = append(subjects, types.NewPointer(n))
			}
		}
		// Generic types take part as the instantiations the code uses.
		for _, tv := range pkg.Info.Types {
			if n, ok := tv.Type.(*types.Named); ok && n.TypeArgs().Len() > 0 && !types.IsInterface(n) {
				subjects = append(subjects, types.NewPointer(n))
			}
		}
	}
	for _, t := range subjects {
		esc := idx.escapes[t.Elem().(*types.Named).Origin().Obj().Pos()]
		if esc == 0 {
			continue
		}
		for _, iface := range ifaces {
			if !types.Implements(t, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				im := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(t, false, im.Pkg(), im.Name())
				fn, ok := obj.(*types.Func)
				switch {
				case !ok:
				case esc&inCode != 0, esc&inOtherTests != 0 && fn.Exported():
					idx.live[fn.Origin()] = true
				case esc&inOwnTests != 0:
					idx.ownTests[objectKey(fn.Origin())] = true
				}
			}
		}
	}
}

// errorsProtocol are the interfaces errors.Is, errors.As and errors.Unwrap
// assert on an error's dynamic value.
var errorsProtocol = []string{
	"interface{ Is(error) bool }",
	"interface{ As(any) bool }",
	"interface{ Unwrap() error }",
	"interface{ Unwrap() []error }",
}

// interfacesIn collects the non-empty interfaces a value of the module can
// be used through: every named interface of every package in the import
// closure, the universe's error, the errors package's protocol, and the
// module's interface literals.
func interfacesIn(pkgs []*Package) []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && iface.IsMethodSet() {
			out = append(out, iface)
		}
	}
	addScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
	}
	addScope(types.Universe)
	for _, expr := range errorsProtocol {
		tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, expr)
		if err != nil {
			panic(err)
		}
		add(tv.Type)
	}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		addScope(p.Scope())
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				add(tv.Type)
			}
		}
	}
	return out
}
