package xpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/xdr"
)

type ring struct {
	Count uint32
	Head  uint32
}

type adapter struct {
	Name      string
	MsgEnable int32
	LinkUp    bool
	Tx        ring
	Stats     [4]uint64
}

func newTestKernel() *kernel.Kernel {
	clock := ktime.NewClock()
	return kernel.New(clock, hw.NewBus(clock, 1<<20))
}

func newDecafRuntime(k *kernel.Kernel) *Runtime {
	return NewRuntime(k, "test", ModeDecaf, nil)
}

func TestShareCreatesTrackerAssociations(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ka := &adapter{Name: "eth0"}
	da := &adapter{}
	kptr, err := r.Share(ka, da)
	if err != nil {
		t.Fatal(err)
	}
	if kptr == 0 {
		t.Fatal("Share returned NULL kernel pointer")
	}
	if r.SharedCount() != 1 {
		t.Fatalf("SharedCount = %d", r.SharedCount())
	}
	if r.LibTracker.Count() != 1 || r.DecafTracker.Count() != 1 {
		t.Fatal("trackers not populated")
	}
	if s, ok := r.findShared(ka); !ok || s.decafObj != any(da) {
		t.Fatal("kernel object does not lead to its decaf counterpart")
	}
	if s, ok := r.findShared(da); !ok || s.kernelObj != any(ka) {
		t.Fatal("decaf object does not lead to its kernel counterpart")
	}
}

func TestShareTypeMismatch(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	if _, err := r.Share(&adapter{}, &ring{}); err == nil {
		t.Fatal("mismatched Share succeeded")
	}
}

func TestUnshare(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ka, da := &adapter{}, &adapter{}
	_, _ = r.Share(ka, da)
	if !r.Unshare(ka) {
		t.Fatal("Unshare = false")
	}
	if r.Unshare(ka) {
		t.Fatal("double Unshare = true")
	}
	if r.SharedCount() != 0 || r.LibTracker.Count() != 0 || r.DecafTracker.Count() != 0 {
		t.Fatal("Unshare left associations")
	}
}

func TestSyncToUserPropagatesState(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ka := &adapter{Name: "eth0", MsgEnable: 3, LinkUp: true, Tx: ring{Count: 256, Head: 7}}
	da := &adapter{}
	_, _ = r.Share(ka, da)
	ctx := k.NewContext("t")
	if err := r.SyncToUser(ctx, ka); err != nil {
		t.Fatal(err)
	}
	if da.Name != "eth0" || da.MsgEnable != 3 || !da.LinkUp || da.Tx.Head != 7 {
		t.Fatalf("decaf copy not updated: %+v", da)
	}
}

func TestSyncToKernelPropagatesState(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ka, da := &adapter{}, &adapter{}
	_, _ = r.Share(ka, da)
	da.MsgEnable = 42
	da.Tx.Count = 128
	ctx := k.NewContext("t")
	if err := r.SyncToKernel(ctx, da); err != nil {
		t.Fatal(err)
	}
	if ka.MsgEnable != 42 || ka.Tx.Count != 128 {
		t.Fatalf("kernel copy not updated: %+v", ka)
	}
}

func TestSyncUnsharedFails(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	if err := r.SyncToUser(ctx, &adapter{}); err == nil {
		t.Fatal("SyncToUser of unshared object succeeded")
	}
	if err := r.SyncToKernel(ctx, &adapter{}); err == nil {
		t.Fatal("SyncToKernel of unshared object succeeded")
	}
}

func TestUpcallRoundTrip(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")

	served := r.SharedState().Load(testCellServed)
	err := r.Call(ctx, hCount)
	if ran := r.SharedState().Load(testCellServed) - served; err != nil || ran != 1 {
		t.Fatalf("upcall ran=%d err=%v", ran, err)
	}
	// The body's modeled cost was spent on the decaf context.
	if busy := r.decafCtx.Busy(); busy != xpctestCountCost {
		t.Fatalf("decaf context busy %v, want the body's %v", busy, xpctestCountCost)
	}
	c := r.Counters()
	if c.Upcalls != 1 || c.Downcalls != 0 || c.Trips() != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.PerCall["xpctest_count"] != 1 {
		t.Fatalf("PerCall = %v", c.PerCall)
	}
	// A payload crosses both legs: kernel→library and library→decaf.
	if err := r.CallData(ctx, hSink, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.BytesKernelUser == 0 || c.BytesCJava == 0 {
		t.Fatal("no bytes accounted for the two payload legs")
	}
}

func TestUpcallNativeModeBypassesXPC(t *testing.T) {
	k := newTestKernel()
	r := NewRuntime(k, "test", ModeNative, nil)
	ctx := k.NewContext("t")
	served := r.SharedState().Load(testCellServed)
	err := r.Call(ctx, hCount)
	if err != nil || r.SharedState().Load(testCellServed)-served != 1 {
		t.Fatal("native upcall failed")
	}
	if r.Counters().Trips() != 0 {
		t.Fatal("native mode counted a crossing")
	}
	// The caller ran the body itself: it paid the body's cost and no
	// crossing latency, and the decaf context never ran.
	if ctx.Elapsed() != xpctestCountCost || r.decafCtx.Elapsed() != 0 {
		t.Fatalf("caller elapsed %v, decaf elapsed %v: native mode charged latency", ctx.Elapsed(), r.decafCtx.Elapsed())
	}
}

func TestUpcallChargesLatency(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	if err := r.CallData(ctx, hSink, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	// One call/return trip's control-transfer base plus marshaling CPU.
	minBase := DefaultLatencyModel.KernelUserBase + DefaultLatencyModel.CJavaBase
	if ctx.Elapsed() < minBase {
		t.Fatalf("Elapsed = %v, want >= %v", ctx.Elapsed(), minBase)
	}
	if ctx.Busy() == 0 {
		t.Fatal("no marshaling CPU charged")
	}
}

func TestUpcallFromAtomicContextFaults(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	lock := kernel.NewSpinLock("adapter")
	lock.Lock(ctx)
	defer lock.Unlock(ctx)
	defer func() {
		if recover() == nil {
			t.Fatal("upcall under spinlock did not fault")
		}
	}()
	_ = r.Call(ctx, hSink)
}

func TestUpcallDisablesIRQs(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.DisableIRQs = []int{9}
	line := k.Bus().IRQ(9)
	fired := 0
	_ = k.RequestIRQ(9, "dev", func(c *kernel.Context, irq int, dev any) { fired++ }, nil)
	// The body's downcall target runs while the decaf half executes.
	r.BindDowncall(dcReadReg, func(*kernel.Context, uint64) (uint64, error) {
		if !line.Disabled() {
			t.Error("IRQ not disabled during decaf execution")
		}
		line.Raise() // device interrupts while decaf code runs: must latch
		if fired != 0 {
			t.Error("interrupt delivered while masked")
		}
		return 0, nil
	})
	ctx := k.NewContext("t")
	if err := r.Call(ctx, hDown); err != nil {
		t.Fatal(err)
	}
	if line.Disabled() {
		t.Fatal("IRQ still disabled after upcall")
	}
	if fired != 1 {
		t.Fatalf("latched interrupt fired %d times after upcall, want 1", fired)
	}
}

func TestUpcallContainsUserFault(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	err := r.Call(ctx, hPanic)
	var fault *UserFault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want *UserFault", err)
	}
	if !strings.Contains(fault.Error(), "xpctest_panic") {
		t.Fatalf("fault message %q lacks call name", fault.Error())
	}
	if c := r.Counters(); c.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", c.Faults)
	}
}

// TestDowncallRoundTrip: a handler body's downcall crosses into the kernel
// as a crossing of its own, runs its target on a kernel context — not the
// decaf one — and hands the scalar result back to the body.
func TestDowncallRoundTrip(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.BindDowncall(dcReadReg, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		if kctx == r.decafCtx {
			t.Error("downcall target ran on the decaf context")
		}
		return arg * 6, nil
	})
	if err := r.Call(k.NewContext("t"), hDown); err != nil {
		t.Fatal(err)
	}
	if got := r.SharedState().Load(testCellDown); got != 42 {
		t.Fatalf("down cell = %d, want the target's 42", got)
	}
	c := r.Counters()
	if c.Upcalls != 1 || c.Downcalls != 1 || c.Trips() != 2 || c.PerCall["xpctest_read_reg"] != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestDowncallPropagatesError: a target's error reaches the body, which
// returns it as the upcall's own.
func TestDowncallPropagatesError(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	boom := errors.New("EIO")
	r.BindDowncall(dcReadReg, func(*kernel.Context, uint64) (uint64, error) { return 0, boom })
	if err := r.Call(k.NewContext("t"), hDown); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestDowncallBindingByName: RegisterDowncall binds the target of the
// downcall declared under its name, as BindDowncall does by handle, and
// panics at once — at driver construction, not on the first crossing — on a
// name no DeclareDowncall declared; BindDowncall panics on an index outside
// the declared table.
func TestDowncallBindingByName(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.RegisterDowncall("xpctest_read_reg", func(_ *kernel.Context, arg uint64) (uint64, error) { return arg + 35, nil })
	if err := r.Call(k.NewContext("t"), hDown); err != nil {
		t.Fatal(err)
	}
	if got := r.SharedState().Load(testCellDown); got != 42 {
		t.Fatalf("down cell = %d, want the by-name target's 42", got)
	}
	target := func(*kernel.Context, uint64) (uint64, error) { return 0, nil }
	for name, bind := range map[string]func(){
		"undeclared name":    func() { r.RegisterDowncall("xpctest_never_declared", target) },
		"index past table":   func() { r.BindDowncall(registry.Downcall(len(registry.DowncallNames())), target) },
		"declared, nil func": func() { r.BindDowncall(dcReadReg, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the binding did not panic", name)
				}
			}()
			bind()
		}()
	}
}

func TestFieldMaskReducesBytes(t *testing.T) {
	k := newTestKernel()
	mask := xdr.FieldMask{"adapter": {"MsgEnable": true, "LinkUp": true}}
	rMasked := NewRuntime(k, "masked", ModeDecaf, mask)
	rFull := NewRuntime(k, "full", ModeDecaf, mask)
	rFull.UseFullMarshal = true

	run := func(r *Runtime) uint64 {
		ka, da := &adapter{Name: "a-long-interface-name"}, &adapter{}
		_, _ = r.Share(ka, da)
		ctx := k.NewContext("t")
		if err := r.SyncToUser(ctx, ka); err != nil {
			t.Fatal(err)
		}
		return r.Counters().BytesKernelUser
	}
	masked, full := run(rMasked), run(rFull)
	if masked >= full {
		t.Fatalf("masked bytes %d >= full bytes %d", masked, full)
	}
}

func TestDirectTransferSkipsLibraryLeg(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.DirectTransfer = true
	ka, da := &adapter{MsgEnable: 9}, &adapter{}
	_, _ = r.Share(ka, da)
	ctx := k.NewContext("t")
	if err := r.SyncToUser(ctx, ka); err != nil {
		t.Fatal(err)
	}
	if da.MsgEnable != 9 {
		t.Error("direct transfer did not propagate state")
	}
	c := r.Counters()
	if c.BytesCJava != 0 {
		t.Fatalf("direct transfer still marshaled %d bytes through the library", c.BytesCJava)
	}
	if c.BytesKernelUser == 0 {
		t.Fatal("no direct bytes accounted")
	}
}

func TestDirectTransferFasterThanStaged(t *testing.T) {
	k := newTestKernel()
	staged := newDecafRuntime(k)
	direct := newDecafRuntime(k)
	direct.DirectTransfer = true

	elapsed := func(r *Runtime) time.Duration {
		ka, da := &adapter{Name: "eth0"}, &adapter{}
		_, _ = r.Share(ka, da)
		ctx := k.NewContext("t")
		_ = r.SyncToUser(ctx, ka)
		return ctx.Elapsed()
	}
	if ds, dd := elapsed(staged), elapsed(direct); dd >= ds {
		t.Fatalf("direct transfer (%v) not faster than staged (%v)", dd, ds)
	}
}

func TestResetCounters(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	_ = r.Call(k.NewContext("t"), hSink)
	if r.Counters().Trips() != 1 {
		t.Fatal("setup failed")
	}
	r.ResetCounters()
	if r.Counters().Trips() != 0 {
		t.Fatal("ResetCounters did not zero")
	}
}

func TestTypeIDOf(t *testing.T) {
	if TypeIDOf(&adapter{}) != "adapter" {
		t.Fatalf("TypeIDOf(&adapter{}) = %s", TypeIDOf(&adapter{}))
	}
	if TypeIDOf(adapter{}) != "adapter" {
		t.Fatalf("TypeIDOf(adapter{}) = %s", TypeIDOf(adapter{}))
	}
}

func TestCountersCallNames(t *testing.T) {
	c := Counters{PerCall: map[string]uint64{"b": 1, "a": 2}}
	names := c.CallNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("CallNames = %v", names)
	}
}
