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

func TestRuntimeRegistry(t *testing.T) {
	s := NewSystem(Options{DMABytes: 1 << 20})
	rt, err := s.NewRuntime("e1000", xpc.ModeDecaf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRuntime("e1000", xpc.ModeNative, nil); err == nil {
		t.Fatal("duplicate runtime accepted")
	}
	got, ok := s.Runtime("e1000")
	if !ok || got != rt {
		t.Fatal("Runtime lookup failed")
	}
	if _, ok := s.Runtime("nope"); ok {
		t.Fatal("phantom runtime")
	}
}

func init() {
	registry.Register("coretest_noop", registry.Handler{Fn: func(*registry.Ctx) error { return nil }})
	registry.Register("coretest_down", registry.Handler{Down: true, Fn: func(c *registry.Ctx) error {
		_, err := c.Downcall("coretest_target", 0)
		return err
	}})
}

func TestTotalCrossings(t *testing.T) {
	s := NewSystem(Options{DMABytes: 1 << 20})
	rt1, _ := s.NewRuntime("a", xpc.ModeDecaf, nil)
	rt2, _ := s.NewRuntime("b", xpc.ModeDecaf, nil)
	rt2.RegisterDowncall("coretest_target", func(*kernel.Context, uint64) (uint64, error) { return 0, nil })
	ctx := s.Kernel.NewContext("t")
	// One upcall on a, then one on b whose body calls down once.
	if err := rt1.UpcallHandler(ctx, "coretest_noop"); err != nil {
		t.Fatal(err)
	}
	if err := rt2.UpcallHandler(ctx, "coretest_down"); err != nil {
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
