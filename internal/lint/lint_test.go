package lint_test

import (
	"regexp"
	"strings"
	"testing"

	"decafdrivers/internal/lint"
)

// wantRe matches golden expectations: a `// want "substring"` comment on
// the offending line.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

func loadPkgs(t *testing.T, patterns ...string) []*lint.Package {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := mod.Packages(root, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

type expectation struct {
	file   string
	line   int
	substr string
}

func expectations(pkgs []*lint.Package) []expectation {
	var wants []expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, g := range f.Comments {
				for _, c := range g.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, expectation{file: pos.Filename, line: pos.Line, substr: m[1]})
				}
			}
		}
	}
	return wants
}

// checkGolden runs one analyzer over its fixture packages and matches the
// findings against the want comments, both ways.
func checkGolden(t *testing.T, a *lint.Analyzer, patterns ...string) {
	t.Helper()
	checkGoldenPkgs(t, a, loadPkgs(t, patterns...))
}

func checkGoldenPkgs(t *testing.T, a *lint.Analyzer, pkgs []*lint.Package) {
	t.Helper()
	findings := lint.Run(pkgs, []*lint.Analyzer{a})
	wants := expectations(pkgs)
	if len(wants) == 0 {
		t.Fatalf("fixture for %s has no want comments", a.Name)
	}
	matched := make([]bool, len(wants))
	for _, f := range findings {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == f.Pos.Filename && w.line == f.Pos.Line && strings.Contains(f.Message, w.substr) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing finding at %s:%d (want %q)", w.file, w.line, w.substr)
		}
	}
	if len(findings) == 0 {
		t.Errorf("%s caught no violations in its fixture", a.Name)
	}
}

func TestBoundaryGolden(t *testing.T) {
	checkGolden(t, lint.BoundaryAnalyzer,
		"internal/lint/testdata/boundary/bad",
		"internal/lint/testdata/boundary/good")
}

func TestHotpathGolden(t *testing.T) {
	checkGolden(t, lint.HotpathAnalyzer, "internal/lint/testdata/hotpath/hot")
}

func TestSharedMemGolden(t *testing.T) {
	checkGolden(t, lint.SharedMemAnalyzer, "internal/lint/testdata/sharedmem/shmring")
}

func TestErrAuditGolden(t *testing.T) {
	checkGolden(t, lint.ErrAuditAnalyzer, "internal/lint/testdata/erraudit/drv")
}

// TestUnusedGolden runs the unused rule over its fixture, a module of its
// own: the rule indexes references over a whole module, and the fixture's
// cases need a package whose test calls in and a main package.
func TestUnusedGolden(t *testing.T) {
	mod, err := lint.LoadModule("testdata/unused")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := mod.Packages(mod.Root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenPkgs(t, lint.UnusedAnalyzer, pkgs)
}

// TestUnusedSubsetOfWholeModule: the reference index always covers the
// whole module, so checking one package reports exactly its share of the
// whole-module run.
func TestUnusedSubsetOfWholeModule(t *testing.T) {
	whole, err := lint.LoadModule("testdata/unused")
	if err != nil {
		t.Fatal(err)
	}
	all, err := whole.Packages(whole.Root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	one, err := lint.LoadModule("testdata/unused")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := one.Packages(one.Root, "lib")
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, f := range lint.Run(all, []*lint.Analyzer{lint.UnusedAnalyzer}) {
		if strings.Contains(f.Pos.Filename, "/lib/") {
			want = append(want, f.String())
		}
	}
	for _, f := range lint.Run(lib, []*lint.Analyzer{lint.UnusedAnalyzer}) {
		got = append(got, f.String())
	}
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("lib alone reports\n%s\nthe whole module reports for lib\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestWholeTreeClean is the acceptance criterion in test form: the full
// decafvet suite over the real tree reports nothing.
func TestWholeTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module typecheck is slow")
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := mod.Packages(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range lint.Run(pkgs, lint.Analyzers()) {
		t.Errorf("%s", f)
	}
}
