package psmouse

import (
	"testing"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/ps2hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/kinput"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/xpc"
)

type rig struct {
	kern  *kernel.Kernel
	in    *kinput.Subsystem
	port  *kinput.SerioPort
	mouse *ps2hw.Mouse
	drv   *Driver
}

func newRig(t *testing.T, mode xpc.Mode) *rig {
	t.Helper()
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 1<<20)
	kern := kernel.New(clock, bus)
	in := kinput.New()
	port := kinput.NewSerioPort()
	mouse := ps2hw.New(port, bus.IRQ(12))
	drv := New(kern, in, port, Config{Mode: mode, IRQ: 12})
	return &rig{kern: kern, in: in, port: port, mouse: mouse, drv: drv}
}

func TestProbeDetectsIntelliMouse(t *testing.T) {
	for _, mode := range []xpc.Mode{xpc.ModeNative, xpc.ModeDecaf} {
		r := newRig(t, mode)
		if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
			t.Fatal(err)
		}
		if r.drv.State.Protocol != "ImPS/2" {
			t.Errorf("%v: protocol = %q, want ImPS/2 (knock detected)", mode, r.drv.State.Protocol)
		}
		if r.drv.State.MouseID != ps2hw.IDIntelliMouse {
			t.Errorf("%v: id = %d", mode, r.drv.State.MouseID)
		}
		if !r.mouse.Reporting() {
			t.Errorf("%v: reporting not enabled after probe", mode)
		}
		if _, ok := r.in.Device("psmouse"); !ok {
			t.Errorf("%v: input device not registered", mode)
		}
	}
}

func TestMovementGeneratesEvents(t *testing.T) {
	for _, mode := range []xpc.Mode{xpc.ModeNative, xpc.ModeDecaf} {
		r := newRig(t, mode)
		if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
			t.Fatal(err)
		}
		var rels, keys int
		var lastDx int
		dev := r.drv.InputDevice()
		dev.SetSink(func(e kinput.Event) {
			switch e.Type {
			case "rel":
				rels++
				if e.Code == "REL_X" {
					lastDx = e.Value
				}
			case "key":
				keys++
			}
		})
		if !r.mouse.Move(5, -3, true, false) {
			t.Fatalf("%v: Move rejected", mode)
		}
		if rels != 2 || keys != 2 {
			t.Fatalf("%v: rels=%d keys=%d", mode, rels, keys)
		}
		if lastDx != 5 {
			t.Fatalf("%v: dx = %d", mode, lastDx)
		}
		_, syncs := dev.Counts()
		if syncs != 1 {
			t.Fatalf("%v: syncs = %d", mode, syncs)
		}
	}
}

func TestNegativeMotionSignExtends(t *testing.T) {
	r := newRig(t, xpc.ModeNative)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	var dy int
	r.drv.InputDevice().SetSink(func(e kinput.Event) {
		if e.Code == "REL_Y" {
			dy = e.Value
		}
	})
	r.mouse.Move(0, -7, false, false)
	if dy != -7 {
		t.Fatalf("dy = %d, want -7", dy)
	}
}

func TestDecafInitCrossings(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	c := r.drv.Runtime().Counters()
	// Paper Table 3: 24 crossings for psmouse initialization.
	if c.Trips() < 8 || c.Trips() > 40 {
		t.Fatalf("init crossings = %d, want ~8-40 (paper: 24)", c.Trips())
	}
}

func TestSteadyStateMovementNoCrossings(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	r.drv.Runtime().ResetCounters()
	for i := 0; i < 300; i++ {
		r.mouse.Move(1, 1, false, false)
	}
	if c := r.drv.Runtime().Counters(); c.Trips() != 0 {
		t.Fatalf("movement crossed %d times (paper: the mouse workload never invokes the decaf driver)", c.Trips())
	}
	if r.drv.State.Reports != 300 {
		t.Fatalf("reports = %d", r.drv.State.Reports)
	}
}

func TestMoveBeforeEnableDropped(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	if r.mouse.Move(1, 1, false, false) {
		t.Fatal("movement accepted before enable")
	}
}

func TestUnload(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	if err := r.kern.UnloadModule("psmouse"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.in.Device("psmouse"); ok {
		t.Fatal("input device still registered")
	}
	if r.drv.Runtime().SharedCount() != 0 {
		t.Fatal("shared objects leaked")
	}
}
