package uhcihcd

import (
	"fmt"
	"testing"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/uhcihw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/kusb"
	"decafdrivers/internal/xpc"
)

type rig struct {
	clock *ktime.Clock
	kern  *kernel.Kernel
	usb   *kusb.Core
	dev   *uhcihw.Device
	flash *uhcihw.FlashDrive
	drv   *Driver
}

func newRig(t *testing.T, mode xpc.Mode) *rig {
	t.Helper()
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 8<<20)
	kern := kernel.New(clock, bus)
	usb := kusb.New()
	dev := uhcihw.New(bus, 10, 0xE000)
	flash := &uhcihw.FlashDrive{}
	dev.AttachPeripheral(0, flash)
	drv := New(kern, usb, dev, 0xE000, Config{Mode: mode, IRQ: 10})
	return &rig{clock: clock, kern: kern, usb: usb, dev: dev, flash: flash, drv: drv}
}

func TestInitConfiguresController(t *testing.T) {
	for _, mode := range []xpc.Mode{xpc.ModeNative, xpc.ModeDecaf} {
		r := newRig(t, mode)
		if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
			t.Fatal(err)
		}
		if !r.drv.State.Running {
			t.Fatalf("%v: controller not running", mode)
		}
		if r.drv.State.Port[0]&uhcihw.PortEnable == 0 {
			t.Fatalf("%v: port 0 not enabled (%#x)", mode, r.drv.State.Port[0])
		}
		if _, ok := r.usb.HCDByName("uhci-hcd"); !ok {
			t.Fatalf("%v: HCD not registered", mode)
		}
	}
}

func TestDecafInitCrossings(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	rep, err := r.kern.LoadModule(r.drv.Module())
	if err != nil {
		t.Fatal(err)
	}
	c := r.drv.Runtime().Counters()
	// Paper Table 3: 49 crossings for uhci-hcd initialization.
	if c.Trips() < 15 || c.Trips() > 80 {
		t.Fatalf("init crossings = %d, want ~15-80 (paper: 49)", c.Trips())
	}
	if rep.InitLatency < time.Second {
		t.Fatalf("decaf init latency = %v (paper: 2.67s)", rep.InitLatency)
	}
}

func TestBulkOutTransfer(t *testing.T) {
	for _, mode := range []xpc.Mode{xpc.ModeNative, xpc.ModeDecaf} {
		r := newRig(t, mode)
		if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
			t.Fatal(err)
		}
		ctx := r.kern.NewContext("tar")
		data := make([]byte, 1024) // 16 packets
		done := false
		urb := &kusb.URB{Endpoint: 2, Dir: kusb.DirOut, Data: data,
			Complete: func(u *kusb.URB) { done = true }}
		if err := r.usb.SubmitURB(ctx, "uhci-hcd", urb); err != nil {
			t.Fatalf("%v: submit: %v", mode, err)
		}
		// 16 packets at 18 TDs/frame completes within one frame.
		r.clock.Advance(2 * time.Millisecond)
		if !done {
			t.Fatalf("%v: URB not completed", mode)
		}
		if urb.Status != 0 || urb.ActualLength != 1024 {
			t.Fatalf("%v: status=%d actual=%d", mode, urb.Status, urb.ActualLength)
		}
		if r.flash.Written() != 1024 {
			t.Fatalf("%v: flash stored %d bytes", mode, r.flash.Written())
		}
	}
}

func TestBandwidthCappedPerFrame(t *testing.T) {
	r := newRig(t, xpc.ModeNative)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	ctx := r.kern.NewContext("tar")
	// 64 packets (4KB) at 18 TDs/frame needs 4 frames.
	done := false
	urb := &kusb.URB{Endpoint: 2, Dir: kusb.DirOut, Data: make([]byte, 4096),
		Complete: func(u *kusb.URB) { done = true }}
	if err := r.usb.SubmitURB(ctx, "uhci-hcd", urb); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(2 * time.Millisecond)
	if done {
		t.Fatal("4KB URB completed in under the USB 1.1 frame budget")
	}
	r.clock.Advance(3 * time.Millisecond)
	if !done {
		t.Fatal("URB not completed after sufficient frames")
	}
}

func TestPipeBusyRejected(t *testing.T) {
	r := newRig(t, xpc.ModeNative)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	ctx := r.kern.NewContext("t")
	u1 := &kusb.URB{Endpoint: 2, Dir: kusb.DirOut, Data: make([]byte, 64)}
	u2 := &kusb.URB{Endpoint: 2, Dir: kusb.DirOut, Data: make([]byte, 64)}
	if err := r.usb.SubmitURB(ctx, "uhci-hcd", u1); err != nil {
		t.Fatal(err)
	}
	if err := r.usb.SubmitURB(ctx, "uhci-hcd", u2); err == nil {
		t.Fatal("second URB accepted while pipe busy")
	}
}

func TestBulkInTransfer(t *testing.T) {
	r := newRig(t, xpc.ModeNative)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	ctx := r.kern.NewContext("t")
	buf := make([]byte, 64)
	var got int
	urb := &kusb.URB{Endpoint: 1, Dir: kusb.DirIn, Data: buf,
		Complete: func(u *kusb.URB) { got = u.ActualLength }}
	if err := r.usb.SubmitURB(ctx, "uhci-hcd", urb); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(2 * time.Millisecond)
	if got != 1 || buf[0] != 0 {
		t.Fatalf("IN transfer: actual=%d buf[0]=%d", got, buf[0])
	}
}

func TestExitStopsController(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	if err := r.kern.UnloadModule("uhci-hcd"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.usb.HCDByName("uhci-hcd"); ok {
		t.Fatal("HCD still registered after unload")
	}
	before := r.dev.Processed()
	r.clock.Advance(10 * time.Millisecond)
	if r.dev.Processed() != before {
		t.Fatal("controller still processing after unload")
	}
}

// The test-only body below names reset steps outside the table, as a
// compromised worker could: the register-and-value encoding of a frame-list
// base write, and one past the end.
func init() {
	registry.Register("uhci_test_reset_write_out_of_range", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			for _, arg := range []uint64{uhcihw.RegFLBASEADD<<16 | 0x1000, uint64(len(resetWrites))} {
				if _, err := c.Downcall(downResetWrite, arg); err == nil {
					return nil
				}
			}
			return fmt.Errorf("every out-of-range reset step rejected")
		},
	})
}

// TestResetWriteRejectsOutOfRangeStep: uhci_reset_write takes its step from
// the untrusted side, so a step past the reset table is an error and the
// controller's frame-list base and run state are untouched.
func TestResetWriteRejectsOutOfRangeStep(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	flbase := r.kern.Bus().Inl(0xE000 + uhcihw.RegFLBASEADD)
	err := r.drv.Runtime().Call(r.kern.NewContext("t"), registry.Lookup("uhci_test_reset_write_out_of_range"))
	if err == nil || xpc.IsUserFault(err) {
		t.Fatalf("out-of-range uhci_reset_write = %v, want every step rejected with a plain error", err)
	}
	if got := r.kern.Bus().Inl(0xE000 + uhcihw.RegFLBASEADD); got != flbase || got != r.drv.State.FrameBase {
		t.Fatalf("flbase = %#x after rejected writes, want %#x", got, flbase)
	}
	if r.drv.inw(uhcihw.RegUSBCMD)&uhcihw.CmdRS == 0 {
		t.Fatal("controller stopped by a rejected reset step")
	}
}

// TestAdoptStartRejectsWidePortStatus: the port cells are memory the worker
// writes, and PORTSC is 16 bits. A wider value in either cell makes
// adoptStart fail before it adopts anything, so the kernel-resident state
// keeps what the last good start established.
func TestAdoptStartRejectsWidePortStatus(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	st := r.drv.Runtime().SharedState()
	before := *r.drv.State
	good := [numPorts]uint64{st.Load(cellPort[0]), st.Load(cellPort[1])}
	for port := range cellPort {
		st.Store(cellPort[0], 0x95)
		st.Store(cellPort[1], 0x95)
		st.Store(cellPort[port], 0x1_0000|good[port])
		if err := r.drv.adoptStart(); err == nil {
			t.Fatalf("port %d: adoptStart accepted %#x", port, st.Load(cellPort[port]))
		}
		if *r.drv.State != before {
			t.Fatalf("port %d: rejected adoption changed the state: %+v, want %+v", port, *r.drv.State, before)
		}
	}
	st.Store(cellPort[0], good[0])
	st.Store(cellPort[1], good[1])
	if err := r.drv.adoptStart(); err != nil || *r.drv.State != before {
		t.Fatalf("adoptStart of the start body's own cells = %v, state %+v, want %+v", err, *r.drv.State, before)
	}
}
