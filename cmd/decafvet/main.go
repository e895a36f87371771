// Command decafvet runs the decaf static-checker suite (internal/lint) over
// the module: the boundary, hotpath, sharedmem, and erraudit analyzers that
// enforce at lint time the invariants the runtime gates (the CI alloc gate,
// -race, the bench matrix) can only sample.
//
// Usage:
//
//	decafvet [-json] [-list] [-hotpaths] [packages...]
//
// Package patterns follow the go tool ("./...", "internal/xpc"); the default
// is "./...". Exit status is 0 when clean, 1 when findings were reported,
// and 2 on usage or load errors. -hotpaths runs no analyzer: it lists every
// //decaf:hotpath function, one tab-separated line each (module-relative
// file, first line, last line, import path, name), for
// scripts/bce_report.py to attribute bounds checks to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"decafdrivers/internal/lint"
)

// jsonFinding is the stable -json schema, one object per finding.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Function string `json:"function,omitempty"`
	Message  string `json:"message"`
}

func main() {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "decafvet:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], dir, os.Stdout, os.Stderr))
}

func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("decafvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	list := fs.Bool("list", false, "list the analyzers and exit")
	hotpaths := fs.Bool("hotpaths", false, "list the //decaf:hotpath functions and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, "decafvet:", err)
		return 2
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "decafvet:", err)
		return 2
	}
	pkgs, err := mod.Packages(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "decafvet:", err)
		return 2
	}
	// Report paths relative to the module root so output is stable across
	// checkouts.
	rel := func(path string) string {
		if r, err := filepath.Rel(root, path); err == nil {
			return r
		}
		return path
	}
	if *hotpaths {
		listHotpaths(stdout, pkgs, rel)
		return 0
	}
	findings := lint.Run(pkgs, lint.Analyzers())
	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     rel(f.Pos.Filename),
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Function: f.Function,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "decafvet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", rel(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "decafvet: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// listHotpaths writes one line per //decaf:hotpath function of pkgs, in
// source order: module-relative file, the declaration's first and last
// lines, import path and name ("payloadSum", "(*descRing).reserve"),
// tab-separated — the extents scripts/bce_report.py attributes the
// compiler's surviving bounds checks to.
func listHotpaths(w io.Writer, pkgs []*lint.Package, rel func(string) string) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || !pkg.Ann.HotpathFuncs[fn] {
					continue
				}
				pos, end := pkg.Fset.Position(fd.Pos()), pkg.Fset.Position(fd.End())
				name := strings.ReplaceAll(fn.FullName(), pkg.Path+".", "")
				fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\n", rel(pos.Filename), pos.Line, end.Line, pkg.Path, name)
			}
		}
	}
}
