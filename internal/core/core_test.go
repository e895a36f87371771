package core

import (
	"testing"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/xpc"
)

func TestNewSystemWiresSubsystems(t *testing.T) {
	s := NewSystem(Options{})
	if s.Kernel == nil || s.Bus == nil || s.Clock == nil {
		t.Fatal("machine incomplete")
	}
	if s.Net == nil || s.Snd == nil || s.USB == nil || s.Input == nil {
		t.Fatal("subsystems missing")
	}
	if s.Kernel.Clock() != s.Clock || s.Kernel.Bus() != s.Bus {
		t.Fatal("kernel not wired to the machine's clock/bus")
	}
	if s.Bus.DMA().Size() != 16<<20 {
		t.Fatalf("default DMA arena = %d", s.Bus.DMA().Size())
	}
}

// newRuntime builds a runtime for driver and adopts it, as a harness does.
func newRuntime(t *testing.T, s *System, driver string) *xpc.Runtime {
	t.Helper()
	rt := xpc.NewRuntime(s.Kernel, driver, xpc.ModeDecaf, nil)
	if err := s.AdoptRuntime(driver, rt); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRuntimeRegistry(t *testing.T) {
	s := NewSystem(Options{DMABytes: 1 << 20})
	rt := newRuntime(t, s, "e1000")
	if err := s.AdoptRuntime("e1000", xpc.NewRuntime(s.Kernel, "e1000", xpc.ModeNative, nil)); err == nil {
		t.Fatal("duplicate runtime accepted")
	}
	if got := s.runtimes["e1000"]; got != rt {
		t.Fatal("adopted runtime not recorded")
	}
}

var (
	hCoreNoop, hCoreDown *registry.Handler
	downCoreTarget       = registry.DeclareDowncall("coretest_target")
)

func init() {
	hCoreNoop = registry.Register("coretest_noop", registry.Handler{Fn: func(*registry.Ctx) error { return nil }})
	hCoreDown = registry.Register("coretest_down", registry.Handler{Down: true, Fn: func(c *registry.Ctx) error {
		_, err := c.Downcall(downCoreTarget, 0)
		return err
	}})
}

func TestTotalCrossings(t *testing.T) {
	s := NewSystem(Options{DMABytes: 1 << 20})
	rt1 := newRuntime(t, s, "a")
	rt2 := newRuntime(t, s, "b")
	rt2.BindDowncall(downCoreTarget, func(*kernel.Context, uint64) (uint64, error) { return 0, nil })
	ctx := s.Kernel.NewContext("t")
	// One upcall on a, then one on b whose body calls down once.
	if err := rt1.Call(ctx, hCoreNoop); err != nil {
		t.Fatal(err)
	}
	if err := rt2.Call(ctx, hCoreDown); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalCrossings(); got != 3 {
		t.Fatalf("TotalCrossings = %d, want 3", got)
	}
}

func TestDrainDeferredWorkAdvancesClock(t *testing.T) {
	s := NewSystem(Options{DMABytes: 1 << 20})
	s.Kernel.DeferToWork(func(ctx *kernel.Context) {
		ctx.MSleep(25)
	})
	before := s.Clock.Now()
	s.DrainDeferredWork()
	if s.Clock.Now()-before < 25*1e6 {
		t.Fatalf("clock advanced %v, want >= 25ms", s.Clock.Now()-before)
	}
}

// TestLateEntryPointsCounted: the per-call counts sit at each entry point's
// index, so a handler registered — and a downcall declared — after the
// counter epoch began still counts under its name. (No proc worker runs in
// this package, so registering from a test body changes no layout digest.)
func TestLateEntryPointsCounted(t *testing.T) {
	s := NewSystem(Options{DMABytes: 1 << 20})
	rt := newRuntime(t, s, "late")
	ctx := s.Kernel.NewContext("t")
	if err := rt.Call(ctx, hCoreNoop); err != nil {
		t.Fatal(err)
	}
	rt.ResetCounters()
	down := registry.DeclareDowncall("coretest_late_target")
	late := registry.Register("coretest_late", registry.Handler{Down: true, Fn: func(c *registry.Ctx) error {
		_, err := c.Downcall(down, 0)
		return err
	}})
	rt.BindDowncall(down, func(*kernel.Context, uint64) (uint64, error) { return 0, nil })
	if err := rt.Call(ctx, late); err != nil {
		t.Fatal(err)
	}
	c := rt.Counters()
	want := map[string]uint64{"coretest_late": 1, "coretest_late_target": 1}
	if len(c.PerCall) != len(want) || c.PerCall["coretest_late"] != 1 || c.PerCall["coretest_late_target"] != 1 {
		t.Fatalf("PerCall = %v, want %v", c.PerCall, want)
	}
}
