// Package analysis implements the §5.1 case-study analyses over a driver
// IR: the error-handling audit that exception conversion performs (finding
// ignored and misrouted error returns), the accounting of lines removed by
// replacing the check-and-return idiom with checked exceptions (Figure 5),
// and the hardware-accessor class refactor.
package analysis

import (
	"fmt"
	"sort"

	"decafdrivers/internal/slicer"
)

// Defect is one error-handling flaw the audit finds.
type Defect struct {
	// Function is the containing function.
	Function string
	// Callee is the call whose error return is mishandled.
	Callee string
	// Kind is "ignored" (return value never tested) or "misrouted"
	// (tested, but cleanup jumps to the wrong label).
	Kind string
}

// String renders the defect in the audit's one-line format. The toy-IR
// audit and decafvet's erraudit analyzer both report through this, so the
// §5.1 numbers and the real-tree findings read identically.
func (d Defect) String() string {
	switch d.Kind {
	case "ignored":
		return fmt.Sprintf("%s: error from %s is ignored", d.Function, d.Callee)
	case "misrouted":
		return fmt.Sprintf("%s: error from %s is checked but mishandled", d.Function, d.Callee)
	}
	return fmt.Sprintf("%s: %s error from %s", d.Function, d.Kind, d.Callee)
}

// ErrorAudit is the result of the exception-conversion audit.
type ErrorAudit struct {
	// FunctionsConverted counts functions rewritten to checked exceptions
	// (those carrying integer-error-return sites) — the paper's 92.
	FunctionsConverted int
	// TotalSites counts error-return call sites examined.
	TotalSites int
	// Defects lists the flaws found — the paper's 28 cases "in which error
	// codes were ignored or handled incorrectly".
	Defects []Defect
	// LinesRemoved is the check-and-return idiom lines eliminated by the
	// rewrite — the paper's 675 from e1000_hw.c.
	LinesRemoved int
	// LinesRemovedByFile splits LinesRemoved per source file.
	LinesRemovedByFile map[string]int
	// GotoCleanupFunctions counts functions using the goto-label idiom the
	// conversion replaces with nested handlers.
	GotoCleanupFunctions int
}

// AuditErrorHandling walks every function's error sites. The compiler-
// enforced property the paper leans on — "the compiler requires the program
// to handle these exceptions" — means conversion surfaces exactly the sites
// where the original C ignored or misrouted an error.
func AuditErrorHandling(d *slicer.Driver) *ErrorAudit {
	a := &ErrorAudit{LinesRemovedByFile: make(map[string]int)}
	for _, name := range d.FuncNames() {
		f := d.Funcs[name]
		if len(f.ErrorSites) == 0 {
			continue
		}
		a.FunctionsConverted++
		if f.UsesGotoCleanup {
			a.GotoCleanupFunctions++
		}
		for _, s := range f.ErrorSites {
			a.TotalSites++
			switch {
			case !s.Checked:
				a.Defects = append(a.Defects, Defect{Function: name, Callee: s.Callee, Kind: "ignored"})
			case !s.HandledCorrectly:
				a.Defects = append(a.Defects, Defect{Function: name, Callee: s.Callee, Kind: "misrouted"})
			}
			// Every checked site's test-and-return code disappears under
			// exceptions (Figure 5's rewrite).
			a.LinesRemoved += s.CheckLines
			a.LinesRemovedByFile[f.File] += s.CheckLines
		}
	}
	sort.Slice(a.Defects, func(i, j int) bool {
		if a.Defects[i].Function != a.Defects[j].Function {
			return a.Defects[i].Function < a.Defects[j].Function
		}
		return a.Defects[i].Kind < a.Defects[j].Kind
	})
	return a
}

// DefectCounts tallies defects by kind.
func (a *ErrorAudit) DefectCounts() (ignored, misrouted int) {
	for _, d := range a.Defects {
		if d.Kind == "ignored" {
			ignored++
		} else {
			misrouted++
		}
	}
	return ignored, misrouted
}

// FileReduction reports the removed lines in file as a fraction of the
// file's size — the paper's "675 lines of code, or approximately 8%, from
// e1000_hw.c".
func (a *ErrorAudit) FileReduction(d *slicer.Driver, file string) (float64, error) {
	lines := a.LinesRemovedByFile[file]
	total := d.FileLoC[file]
	if total == 0 {
		// Fall back to summing the file's function bodies.
		for _, f := range d.Funcs {
			if f.File == file {
				total += f.LoC
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("analysis: no line information for %s", file)
	}
	return float64(lines) / float64(total), nil
}

// HWClassRefactor models the §5.1 object-orientation result: "restructuring
// the hardware accessor functions as a class removed 6.5KB of code that
// passes this structure as a parameter". Every function in the given file
// loses its `struct e1000_hw *hw` parameter (the declaration text) and the
// `hw` argument at each internal call site.
type HWClassRefactor struct {
	// Functions is the number of accessor functions folded into the class.
	Functions int
	// CallSites is the number of internal call sites losing the argument.
	CallSites int
	// BytesRemoved is the total source text eliminated.
	BytesRemoved int
}

// Parameter-text sizes (bytes) for the refactor model.
const (
	hwParamDeclBytes = 21 // "struct e1000_hw *hw, "
	hwParamCallBytes = 24 // "hw" at the call plus the dereference churn
)

// AnalyzeHWClassRefactor computes the refactor savings for functions in
// file (e1000_hw.c in the case study).
func AnalyzeHWClassRefactor(d *slicer.Driver, file string) *HWClassRefactor {
	inFile := make(map[string]bool)
	for name, f := range d.Funcs {
		if f.File == file {
			inFile[name] = true
		}
	}
	r := &HWClassRefactor{}
	for name := range inFile {
		r.Functions++
		r.BytesRemoved += hwParamDeclBytes
		for _, c := range d.Funcs[name].Calls {
			if inFile[c] {
				r.CallSites++
				r.BytesRemoved += hwParamCallBytes
			}
		}
	}
	return r
}
