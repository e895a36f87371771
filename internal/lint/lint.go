package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic, positioned at the offending
// expression.
type Finding struct {
	// Analyzer names the rule that fired.
	Analyzer string
	// Pos locates the offending expression.
	Pos token.Position
	// Function is the enclosing function's name ("" at file scope).
	Function string
	// Message states the violation.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one static rule of the decafvet suite.
type Analyzer struct {
	// Name is the rule's short identifier.
	Name string
	// Doc is a one-line description of the invariant.
	Doc string
	// Match restricts which packages the rule runs over (nil = all). The
	// erraudit analyzer uses it to pin the paper's audit scope to the
	// drivers and commands.
	Match func(pkgPath string) bool
	// Run reports the rule's findings for one package.
	Run func(*Pass)
}

// Pass is one analyzer's run over one package.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	findings *[]Finding
	// fn is the enclosing function name while walking declarations.
	fn string
}

// reportf records a finding at pos.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Function: p.fn,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full decafvet suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{BoundaryAnalyzer, ErrAuditAnalyzer, HotpathAnalyzer, SharedMemAnalyzer, UnusedAnalyzer}
}

// Run applies the analyzers to the packages and returns the findings sorted
// by position. Analyzers with a Match hook only see matching packages.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			a.Run(&Pass{Pkg: pkg, analyzer: a, findings: &findings})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// --- shared AST helpers ---

// eachFuncDecl visits every function declaration with a body, setting the
// pass's enclosing-function name for reports.
func (p *Pass) eachFuncDecl(visit func(decl *ast.FuncDecl)) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.fn = fd.Name.Name
			visit(fd)
			p.fn = ""
		}
	}
}

// blockTerminates reports whether a statement list ends the enclosing
// function's execution: a return, a panic, an os.Exit/runtime.Goexit call,
// or a nested block/if doing so on every path. Hot-path analysis treats
// allocations inside terminating branches as cold (failure exits are not
// steady state).
func blockTerminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	return stmtTerminates(stmts[len(stmts)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BlockStmt:
		return blockTerminates(st.List)
	case *ast.IfStmt:
		if !blockTerminates(st.Body.List) {
			return false
		}
		if st.Else == nil {
			return false
		}
		return stmtTerminates(st.Else)
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return fun.Name == "panic"
		case *ast.SelectorExpr:
			// os.Exit, runtime.Goexit, and the decaf exception throws
			// (which panic under the hood).
			name := fun.Sel.Name
			return name == "Exit" || name == "Goexit" || name == "Fatal" || name == "Fatalf" ||
				strings.HasPrefix(name, "Throw") || name == "Rethrow"
		}
		return false
	}
	return false
}
