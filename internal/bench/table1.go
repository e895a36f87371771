package bench

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Table1Row is one implementation component's size.
type Table1Row struct {
	Component string
	Lines     int
}

// componentMap groups this reproduction's packages the way the paper's
// Table 1 groups its implementation: runtime support vs DriverSlicer.
var componentMap = []struct {
	component string
	paper     string
	dirs      []string
}{
	{"Runtime: XPC + trackers", "XPC in Decaf/Nuclear runtime (7,334)", []string{
		"internal/xpc", "internal/objtrack", "internal/xdr"}},
	{"Runtime: decaf runtime", "Jeannie helpers (1,976)", []string{"internal/decaf"}},
	{"DriverSlicer", "CIL OCaml + scripts + XDR compilers (14,113)", []string{
		"internal/slicer"}},
	{"Kernel substrate (simulated)", "n/a (the paper uses Linux 2.6.18.1)", []string{
		"internal/kernel", "internal/ktime", "internal/knet", "internal/ksound",
		"internal/kusb", "internal/kinput"}},
	{"Hardware models (simulated)", "n/a (the paper uses physical devices)", []string{
		"internal/hw"}},
	{"Converted drivers", "n/a (C/Java driver source)", []string{
		"internal/drivers"}},
}

// countGoLines counts non-blank, non-comment-only lines of Go in dir,
// excluding tests.
func countGoLines(root, dir string) (int, error) {
	total := 0
	err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "//") {
				continue
			}
			total++
		}
		return sc.Err()
	})
	return total, err
}

// RunTable1 counts this implementation's code by component. root is the
// repository root.
func RunTable1(root string) ([]Table1Row, error) {
	var rows []Table1Row
	for _, c := range componentMap {
		lines := 0
		for _, dir := range c.dirs {
			n, err := countGoLines(root, dir)
			if err != nil {
				return nil, fmt.Errorf("table1: %s: %w", dir, err)
			}
			lines += n
		}
		rows = append(rows, Table1Row{Component: c.component, Lines: lines})
	}
	return rows, nil
}

// PrintTable1 renders the Table 1 analogue: the size of this
// implementation, grouped as the paper groups its own (23,423 lines total).
func PrintTable1(w io.Writer, root string) error {
	rows, err := RunTable1(root)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 1: non-comment lines of source supporting Decaf Drivers (this reproduction)")
	fmt.Fprintln(w)
	var out [][]string
	total := 0
	for i, r := range rows {
		out = append(out, []string{r.Component, fmt.Sprintf("%d", r.Lines), componentMap[i].paper})
		total += r.Lines
	}
	out = append(out, []string{"Total", fmt.Sprintf("%d", total), "23,423 (paper total)"})
	table(w, []string{"Component", "Lines", "Paper counterpart"}, out)
	return nil
}
