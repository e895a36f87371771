package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"decafdrivers/internal/lint"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestJSONRoundTrip pins the -json schema: findings decode into the schema
// struct, carry module-relative paths, and re-encode byte-identically.
func TestJSONRoundTrip(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "internal/lint/testdata/erraudit/drv"}, moduleRoot(t), &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (findings); stderr: %s", code, errb.String())
	}
	var got []jsonFinding
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("no findings decoded")
	}
	for _, f := range got {
		if f.Analyzer != "erraudit" {
			t.Errorf("analyzer = %q, want erraudit", f.Analyzer)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("file %q should be module-relative", f.File)
		}
		if f.Line <= 0 || f.Col <= 0 || f.Message == "" || f.Function == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
	reenc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(reenc)+"\n" != out.String() {
		t.Error("re-encoded JSON differs from decafvet output")
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"internal/lint/testdata/boundary/good"}, moduleRoot(t), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0; out: %s stderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected output: %s", out.String())
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-list"}, moduleRoot(t), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, name := range []string{"boundary", "hotpath", "sharedmem", "erraudit"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s", name)
		}
	}
}

// TestHotpathsListing pins the -hotpaths format scripts/bce_report.py
// parses: one tab-separated line per //decaf:hotpath function, with a
// module-relative file, the declaration's first and last lines, the import
// path and the function's name.
func TestHotpathsListing(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-hotpaths", "internal/lint/testdata/hotpath/hot"}, moduleRoot(t), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	var names []string
	for _, line := range lines {
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			t.Fatalf("line %q has %d fields, want 5", line, len(f))
		}
		if f[0] != filepath.Join("internal", "lint", "testdata", "hotpath", "hot", "hot.go") {
			t.Errorf("file %q, want the module-relative path of hot.go", f[0])
		}
		first, last := 0, 0
		if _, err := fmt.Sscan(f[1], &first); err != nil || first <= 0 {
			t.Errorf("first line %q", f[1])
		}
		if _, err := fmt.Sscan(f[2], &last); err != nil || last <= first {
			t.Errorf("last line %q not after first %q", f[2], f[1])
		}
		if !strings.HasSuffix(f[3], "internal/lint/testdata/hotpath/hot") {
			t.Errorf("import path %q", f[3])
		}
		names = append(names, f[4])
	}
	if got := strings.Join(names, ","); got != "allocs,clean" {
		t.Fatalf("hot-path functions %s, want allocs,clean (unannotated left out)", got)
	}
}
