package analysis

import (
	"testing"

	"decafdrivers/internal/drivermodel"
	"decafdrivers/internal/slicer"
)

// TestCaseStudyNumbers reproduces the §5.1 headline numbers by running the
// audit over the E1000 model: 92 functions converted, 28 defects found,
// 675 lines removed (~8% of e1000_hw.c).
func TestCaseStudyNumbers(t *testing.T) {
	d := drivermodel.E1000()
	a := AuditErrorHandling(d)
	if a.FunctionsConverted != 92 {
		t.Errorf("FunctionsConverted = %d, want 92", a.FunctionsConverted)
	}
	if len(a.Defects) != 28 {
		t.Errorf("defects = %d, want 28", len(a.Defects))
	}
	ignored, misrouted := a.DefectCounts()
	if ignored+misrouted != 28 || ignored == 0 || misrouted == 0 {
		t.Errorf("defect kinds = %d ignored + %d misrouted", ignored, misrouted)
	}
	if a.LinesRemoved != 675 {
		t.Errorf("LinesRemoved = %d, want 675", a.LinesRemoved)
	}
	frac, err := a.FileReduction(d, "e1000_hw.c")
	if err != nil {
		t.Fatal(err)
	}
	// "approximately 8%"
	if frac < 0.06 || frac > 0.10 {
		t.Errorf("e1000_hw.c reduction = %.1f%%, want ~8%%", frac*100)
	}
	if a.GotoCleanupFunctions == 0 {
		t.Error("no goto-cleanup functions identified")
	}
}

func TestDefectsHaveContext(t *testing.T) {
	a := AuditErrorHandling(drivermodel.E1000())
	for _, d := range a.Defects {
		if d.Function == "" || d.Callee == "" {
			t.Fatalf("defect lacks context: %+v", d)
		}
		if d.Kind != "ignored" && d.Kind != "misrouted" {
			t.Fatalf("defect kind %q", d.Kind)
		}
	}
}

func TestHWClassRefactor(t *testing.T) {
	d := drivermodel.E1000()
	r := AnalyzeHWClassRefactor(d, "e1000_hw.c")
	if r.Functions != 140 {
		t.Errorf("Functions = %d, want 140 (the e1000_hw.c inventory)", r.Functions)
	}
	// Paper: ~6.5KB removed. Accept 4-8KB: the call-graph density is
	// modeled, not measured.
	if r.BytesRemoved < 4000 || r.BytesRemoved > 8500 {
		t.Errorf("BytesRemoved = %d, want ~6500", r.BytesRemoved)
	}
	if r.CallSites == 0 {
		t.Error("no internal call sites found")
	}
}

func TestAuditOnCleanDriverFindsNothing(t *testing.T) {
	d := &slicer.Driver{
		Name: "clean", Type: "t", TotalLoC: 10,
		Funcs: map[string]*slicer.Function{
			"f": {Name: "f", File: "c.c", LoC: 10, ErrorSites: []slicer.ErrorSite{
				{Callee: "g", Checked: true, HandledCorrectly: true, CheckLines: 2},
			}},
		},
	}
	a := AuditErrorHandling(d)
	if len(a.Defects) != 0 {
		t.Fatalf("defects on clean driver: %v", a.Defects)
	}
	if a.LinesRemoved != 2 || a.FunctionsConverted != 1 {
		t.Fatalf("audit = %+v", a)
	}
}
