package decaf

import (
	"errors"
	"strings"
	"testing"
)

func TestThrowCaughtByTry(t *testing.T) {
	e := Try(func() {
		Throw("E1000HWException", "phy read failed at reg %#x", 0x2F5B)
	})
	if e == nil {
		t.Fatal("Try returned nil for thrown exception")
	}
	if e.Class != "E1000HWException" {
		t.Fatalf("Class = %q", e.Class)
	}
	if !strings.Contains(e.Msg, "0x2f5b") {
		t.Fatalf("Msg = %q", e.Msg)
	}
}

func TestTryNilOnSuccess(t *testing.T) {
	if e := Try(func() {}); e != nil {
		t.Fatalf("Try = %v on success", e)
	}
}

func TestNonExceptionPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("plain panic was swallowed by Try")
		}
	}()
	_ = Try(func() { panic("index out of range") })
}

func TestThrowErrnoAndCheck(t *testing.T) {
	e := Try(func() { _ = Check("HWErr", -5, "read_phy_reg") })
	if e == nil || e.Errno != -5 {
		t.Fatalf("e = %+v", e)
	}
	if got := Check("HWErr", 3, "ok"); got != 3 {
		t.Fatalf("Check passed value through as %d", got)
	}
	if e := Try(func() { _ = Check("HWErr", 0, "ok") }); e != nil {
		t.Fatal("Check threw on success code")
	}
}

func TestExceptionErrorString(t *testing.T) {
	e := &Exception{Class: "X", Msg: "m", Errno: -22}
	if !strings.Contains(e.Error(), "-22") || !strings.Contains(e.Error(), "X") {
		t.Fatalf("Error() = %q", e.Error())
	}
}

func TestExceptionIsMatchesClass(t *testing.T) {
	e := Try(func() { Throw("E1000HWException", "x") })
	if !errors.Is(e, &Exception{Class: "E1000HWException"}) {
		t.Fatal("errors.Is by class failed")
	}
	if errors.Is(e, &Exception{Class: "Other"}) {
		t.Fatal("errors.Is matched wrong class")
	}
}

func TestThrowCauseUnwraps(t *testing.T) {
	base := errors.New("eeprom checksum")
	e := Try(func() { ThrowCause("HWErr", base, "init failed") })
	if !errors.Is(e, base) {
		t.Fatal("cause not unwrapped")
	}
}

// TestNestedHandlersFigure4 reproduces the cleanup-ordering semantics of the
// paper's Figure 4: each nested handler releases exactly the resources
// acquired before the failure, in reverse order, then rethrows.
func TestNestedHandlersFigure4(t *testing.T) {
	run := func(failAt string) (cleanups []string, e *Exception) {
		e = Try(func() {
			// allocate transmit descriptors
			if failAt == "tx" {
				Throw("E1000HWException", "tx setup failed")
			}
			TryCatch(func() {
				// allocate receive descriptors
				if failAt == "rx" {
					Throw("E1000HWException", "rx setup failed")
				}
				TryCatch(func() {
					if failAt == "irq" {
						Throw("E1000HWException", "request_irq failed")
					}
				}, func(ex *Exception) {
					cleanups = append(cleanups, "free_all_rx_resources")
					Rethrow(ex)
				})
			}, func(ex *Exception) {
				cleanups = append(cleanups, "free_all_tx_resources")
				Rethrow(ex)
			})
		})
		if e != nil {
			cleanups = append(cleanups, "reset")
		}
		return cleanups, e
	}

	cl, e := run("irq")
	if e == nil || len(cl) != 3 || cl[0] != "free_all_rx_resources" || cl[1] != "free_all_tx_resources" || cl[2] != "reset" {
		t.Fatalf("irq failure cleanups = %v", cl)
	}
	cl, e = run("rx")
	if e == nil || len(cl) != 2 || cl[0] != "free_all_tx_resources" {
		t.Fatalf("rx failure cleanups = %v", cl)
	}
	cl, e = run("tx")
	if e == nil || len(cl) != 1 || cl[0] != "reset" {
		t.Fatalf("tx failure cleanups = %v", cl)
	}
	cl, e = run("none")
	if e != nil || len(cl) != 0 {
		t.Fatalf("success path ran cleanups %v (e=%v)", cl, e)
	}
}

func TestRethrowNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rethrow(nil) did not panic")
		}
	}()
	Rethrow(nil)
}

func TestToError(t *testing.T) {
	if ToError(nil) != nil {
		t.Fatal("ToError(nil) != nil")
	}
	e := &Exception{Class: "X", Msg: "m"}
	if err := ToError(e); err == nil || !errors.Is(err, e) {
		t.Fatal("ToError lost the exception")
	}
}

func TestAsException(t *testing.T) {
	e := &Exception{Class: "X"}
	var got *Exception
	if !errors.As(ToError(e), &got) || got != e {
		t.Fatal("errors.As lost the exception behind ToError")
	}
	if errors.As(errors.New("plain"), &got) {
		t.Fatal("errors.As matched a plain error")
	}
}

// --- parameters ---

func TestRangeParam(t *testing.T) {
	p := &RangeParam{BaseParam: BaseParam{ParamName: "TxDescriptors", Default: 256}, Min: 80, Max: 4096}
	if got := p.Validate(0, false); got != 256 {
		t.Fatalf("default = %d", got)
	}
	if got := p.Validate(1024, true); got != 1024 {
		t.Fatalf("in-range = %d", got)
	}
	e := Try(func() { p.Validate(8, true) })
	if e == nil || e.Class != ParamException {
		t.Fatalf("out-of-range: %v", e)
	}
}

func TestSetParam(t *testing.T) {
	p := NewSetParam("Duplex", 0, 0, 1, 2)
	if got := p.Validate(2, true); got != 2 {
		t.Fatalf("member = %d", got)
	}
	e := Try(func() { p.Validate(3, true) })
	if e == nil {
		t.Fatal("non-member accepted")
	}
}

func TestValidateAll(t *testing.T) {
	params := []Param{
		&RangeParam{BaseParam: BaseParam{ParamName: "TxDescriptors", Default: 256}, Min: 80, Max: 4096},
		NewSetParam("Duplex", 0, 0, 1, 2),
		&BaseParam{ParamName: "Debug", Default: 3},
	}
	got := ValidateAll(params, map[string]int{"TxDescriptors": 512})
	if got["TxDescriptors"] != 512 || got["Duplex"] != 0 || got["Debug"] != 3 {
		t.Fatalf("resolved = %v", got)
	}
}
