package bench

import (
	"fmt"
	"io"

	"decafdrivers/internal/analysis"
	"decafdrivers/internal/drivermodel"
	"decafdrivers/internal/slicer"
)

// CaseStudy bundles the §5.1 analyses.
type CaseStudy struct {
	Audit     *analysis.ErrorAudit
	HWFile    string
	HWPercent float64
	Refactor  *analysis.HWClassRefactor
	XDRSpec   *slicer.XDRSpec
	Stubs     []slicer.Stub
}

// RunCaseStudy executes the E1000 case-study analyses.
func RunCaseStudy() (*CaseStudy, error) {
	d := drivermodel.E1000()
	cs := &CaseStudy{HWFile: "e1000_hw.c"}
	cs.Audit = analysis.AuditErrorHandling(d)
	frac, err := cs.Audit.FileReduction(d, cs.HWFile)
	if err != nil {
		return nil, err
	}
	cs.HWPercent = frac
	cs.Refactor = analysis.AnalyzeHWClassRefactor(d, cs.HWFile)

	spec, err := slicer.GenerateXDRSpec(d)
	if err != nil {
		return nil, err
	}
	cs.XDRSpec = spec
	p, err := slicer.Slice(d)
	if err != nil {
		return nil, err
	}
	cs.Stubs = slicer.GenerateStubs(p, "e1000_adapter")
	return cs, nil
}

// PrintCaseStudy renders the §5 case-study results next to the paper's.
func PrintCaseStudy(w io.Writer) error {
	cs, err := RunCaseStudy()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Case study: the E1000 driver (paper §5)")
	fmt.Fprintln(w)
	ignored, misrouted := cs.Audit.DefectCounts()
	table(w, []string{"Metric", "Measured", "Paper"}, [][]string{
		{"Functions rewritten to checked exceptions",
			fmt.Sprintf("%d", cs.Audit.FunctionsConverted), "92"},
		{"Error returns ignored or handled incorrectly",
			fmt.Sprintf("%d (%d ignored, %d misrouted)", len(cs.Audit.Defects), ignored, misrouted), "28"},
		{"Check-and-return lines removed",
			fmt.Sprintf("%d", cs.Audit.LinesRemoved), "675"},
		{"Fraction of e1000_hw.c removed",
			fmt.Sprintf("%.1f%%", cs.HWPercent*100), "~8%"},
		{"Bytes removed by the e1000_hw class refactor",
			fmt.Sprintf("%.1fKB (%d fns, %d call sites)",
				float64(cs.Refactor.BytesRemoved)/1024, cs.Refactor.Functions, cs.Refactor.CallSites), "6.5KB"},
		{"Goto-cleanup functions replaced by nested handlers",
			fmt.Sprintf("%d", cs.Audit.GotoCleanupFunctions), "(idiom of Figure 4)"},
	})
	fmt.Fprintln(w)

	// Figure 3: show the generated XDR input for e1000_adapter.
	fmt.Fprintln(w, "Figure 3 (generated XDR input for e1000_adapter):")
	fmt.Fprintf(w, "  wrapper structs: %v\n", cs.XDRSpec.WrapperStructs)

	// Figure 2: one Jeannie stub.
	for _, s := range cs.Stubs {
		if s.Kind == "jeannie" {
			fmt.Fprintf(w, "\nFigure 2 (generated Jeannie stub for %s):\n%s", s.Name, s.Text)
			break
		}
	}
	return nil
}
