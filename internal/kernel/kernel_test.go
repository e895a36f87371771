package kernel

import (
	"errors"
	"testing"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/ktime"
)

func newTestKernel() *Kernel {
	clock := ktime.NewClock()
	return New(clock, hw.NewBus(clock, 1<<20))
}

func TestContextDefaults(t *testing.T) {
	k := newTestKernel()
	ctx := k.NewContext("t")
	if ctx.Kind() != CtxProcess {
		t.Fatalf("Kind = %v", ctx.Kind())
	}
	if ctx.InAtomic() || ctx.InIRQ() {
		t.Fatal("fresh process context is atomic")
	}
	if !ctx.MayBlock() {
		t.Fatal("fresh process context may not block")
	}
}

func TestSpinLockMakesContextAtomic(t *testing.T) {
	k := newTestKernel()
	ctx := k.NewContext("t")
	l := NewSpinLock("adapter")
	l.Lock(ctx)
	if !ctx.InAtomic() {
		t.Fatal("not atomic while holding spinlock")
	}
	if got := ctx.HeldSpinlocks(); len(got) != 1 || got[0] != "adapter" {
		t.Fatalf("HeldSpinlocks = %v", got)
	}
	l.Unlock(ctx)
	if ctx.InAtomic() {
		t.Fatal("still atomic after unlock")
	}
}

func TestSleepInAtomicFaults(t *testing.T) {
	k := newTestKernel()
	ctx := k.NewContext("t")
	l := NewSpinLock("x")
	l.Lock(ctx)
	defer l.Unlock(ctx)
	defer func() {
		if recover() == nil {
			t.Fatal("sleep under spinlock did not fault")
		}
	}()
	ctx.MSleep(1)
}

func TestMutexFaultsInAtomic(t *testing.T) {
	k := newTestKernel()
	ctx := k.NewContext("t")
	spin := NewSpinLock("x")
	m := NewMutex("m")
	spin.Lock(ctx)
	defer spin.Unlock(ctx)
	defer func() {
		if recover() == nil {
			t.Fatal("mutex lock under spinlock did not fault")
		}
	}()
	m.Lock(ctx)
}

func TestMutexAllowsBlockingContext(t *testing.T) {
	k := newTestKernel()
	ctx := k.NewContext("t")
	m := NewMutex("m")
	m.Lock(ctx)
	m.Unlock(ctx)
}

func TestNonStrictOopsRecords(t *testing.T) {
	k := newTestKernel()
	k.SetStrictOops(false)
	ctx := k.NewContext("t")
	l := NewSpinLock("x")
	l.Lock(ctx)
	ctx.AssertMayBlock("test-op")
	l.Unlock(ctx)
	if len(k.Oopses()) != 1 {
		t.Fatalf("oopses = %d, want 1", len(k.Oopses()))
	}
	k.ClearOopses()
	if len(k.Oopses()) != 0 {
		t.Fatal("ClearOopses left faults behind")
	}
}

func TestSemaphore(t *testing.T) {
	k := newTestKernel()
	ctx := k.NewContext("t")
	s := NewSemaphore("s", 2)
	s.Down(ctx)
	s.Down(ctx)
	if s.TryDown(ctx) {
		t.Fatal("TryDown succeeded on exhausted semaphore")
	}
	s.Up(ctx)
	if !s.TryDown(ctx) {
		t.Fatal("TryDown failed after Up")
	}
}

func TestSemaphoreUpPastCountPanics(t *testing.T) {
	k := newTestKernel()
	ctx := k.NewContext("t")
	s := NewSemaphore("s", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Up past initial count did not panic")
		}
	}()
	s.Up(ctx)
}

func TestCombolockSpinByDefault(t *testing.T) {
	k := newTestKernel()
	ctx := k.NewContext("t")
	c := NewCombolock("adapter")
	if c.Mode() != "spin" {
		t.Fatalf("Mode = %q, want spin", c.Mode())
	}
	c.Lock(ctx)
	if !ctx.InAtomic() {
		t.Fatal("spin-mode combolock did not enter atomic")
	}
	c.Unlock(ctx)
	st := c.Stats()
	if st.SpinAcquires != 1 || st.SemaphoreAcquires != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCombolockSwitchesToSemaphoreForUser(t *testing.T) {
	k := newTestKernel()
	uctx := k.NewContext("user")
	kctx := k.NewContext("kern")
	c := NewCombolock("adapter")

	c.LockUser(uctx)
	if c.Mode() != "semaphore" {
		t.Fatalf("Mode after user lock = %q", c.Mode())
	}
	if uctx.InAtomic() {
		t.Fatal("user acquisition made context atomic")
	}
	c.UnlockUser(uctx)
	if c.Mode() != "spin" {
		t.Fatalf("Mode after user drain = %q, want spin", c.Mode())
	}

	// Kernel acquisition after revert is a spin acquisition again.
	c.Lock(kctx)
	c.Unlock(kctx)
	st := c.Stats()
	if st.SpinAcquires != 1 || st.SemaphoreAcquires != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCombolockKernelWaitsForUserHolder(t *testing.T) {
	k := newTestKernel()
	uctx := k.NewContext("user")
	kctx := k.NewContext("kern")
	c := NewCombolock("adapter")

	c.LockUser(uctx)
	acquired := make(chan struct{})
	go func() {
		c.Lock(kctx) // must block until user releases
		close(acquired)
		c.Unlock(kctx)
	}()
	select {
	case <-acquired:
		t.Fatal("kernel acquired combolock while user held it")
	case <-time.After(10 * time.Millisecond):
	}
	c.UnlockUser(uctx)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("kernel never acquired combolock after user release")
	}
}

func TestCombolockUnlockUserUnbalancedPanics(t *testing.T) {
	k := newTestKernel()
	ctx := k.NewContext("t")
	c := NewCombolock("x")
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced UnlockUser did not panic")
		}
	}()
	c.UnlockUser(ctx)
}

type testModule struct {
	name     string
	initErr  error
	initMS   int
	exited   bool
	initBusy time.Duration
}

func (m *testModule) ModuleName() string { return m.name }

func (m *testModule) Init(ctx *Context) error {
	if m.initErr != nil {
		return m.initErr
	}
	if m.initMS > 0 {
		ctx.MSleep(m.initMS)
	}
	if m.initBusy > 0 {
		ctx.Charge(m.initBusy)
	}
	return nil
}

func (m *testModule) Exit(ctx *Context) { m.exited = true }

func TestLoadModuleReportsLatency(t *testing.T) {
	k := newTestKernel()
	rep, err := k.LoadModule(&testModule{name: "8139too", initMS: 20, initBusy: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InitLatency != 25*time.Millisecond {
		t.Fatalf("InitLatency = %v, want 25ms", rep.InitLatency)
	}
	if rep.InitBusy != 5*time.Millisecond {
		t.Fatalf("InitBusy = %v, want 5ms", rep.InitBusy)
	}
	got, ok := k.ModuleReport("8139too")
	if !ok || got.InitLatency != rep.InitLatency {
		t.Fatal("ModuleReport mismatch")
	}
}

func TestLoadModuleDuplicate(t *testing.T) {
	k := newTestKernel()
	if _, err := k.LoadModule(&testModule{name: "m"}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.LoadModule(&testModule{name: "m"}); err == nil {
		t.Fatal("duplicate load succeeded")
	}
}

func TestLoadModuleInitFailure(t *testing.T) {
	k := newTestKernel()
	boom := errors.New("no device")
	if _, err := k.LoadModule(&testModule{name: "m", initErr: boom}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if len(k.LoadedModules()) != 0 {
		t.Fatal("failed module left loaded")
	}
}

func TestUnloadModule(t *testing.T) {
	k := newTestKernel()
	m := &testModule{name: "m"}
	if _, err := k.LoadModule(m); err != nil {
		t.Fatal(err)
	}
	if err := k.UnloadModule("m"); err != nil {
		t.Fatal(err)
	}
	if !m.exited {
		t.Fatal("Exit not called")
	}
	if err := k.UnloadModule("m"); err == nil {
		t.Fatal("double unload succeeded")
	}
}

func TestIRQDispatchContext(t *testing.T) {
	k := newTestKernel()
	var sawIRQ, sawAtomic bool
	err := k.RequestIRQ(9, "e1000", func(ctx *Context, irq int, dev any) {
		sawIRQ = ctx.InIRQ()
		sawAtomic = ctx.InAtomic()
		if dev.(string) != "adapter" {
			t.Errorf("dev cookie = %v", dev)
		}
		if irq != 9 {
			t.Errorf("irq = %d", irq)
		}
	}, "adapter")
	if err != nil {
		t.Fatal(err)
	}
	k.Bus().IRQ(9).Raise()
	if !sawIRQ || !sawAtomic {
		t.Fatalf("handler context: irq=%v atomic=%v, want true,true", sawIRQ, sawAtomic)
	}
}

func TestSharedIRQ(t *testing.T) {
	k := newTestKernel()
	var order []string
	_ = k.RequestIRQ(5, "a", func(ctx *Context, irq int, dev any) { order = append(order, "a") }, nil)
	_ = k.RequestIRQ(5, "b", func(ctx *Context, irq int, dev any) { order = append(order, "b") }, nil)
	k.Bus().IRQ(5).Raise()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("shared dispatch order = %v", order)
	}
}

func TestFreeIRQ(t *testing.T) {
	k := newTestKernel()
	count := 0
	_ = k.RequestIRQ(5, "a", func(ctx *Context, irq int, dev any) { count++ }, nil)
	if err := k.FreeIRQ(5, "a"); err != nil {
		t.Fatal(err)
	}
	k.Bus().IRQ(5).Raise()
	if count != 0 {
		t.Fatal("freed handler still ran")
	}
	if err := k.FreeIRQ(5, "a"); err == nil {
		t.Fatal("double free succeeded")
	}
}

func TestBlockingInIRQHandlerFaults(t *testing.T) {
	k := newTestKernel()
	k.SetStrictOops(false)
	_ = k.RequestIRQ(3, "bad", func(ctx *Context, irq int, dev any) {
		ctx.AssertMayBlock("xpc-to-user")
	}, nil)
	k.Bus().IRQ(3).Raise()
	if len(k.Oopses()) != 1 {
		t.Fatal("blocking from IRQ context did not fault")
	}
}

func TestWorkqueueDrain(t *testing.T) {
	k := newTestKernel()
	wq := k.NewWorkqueue("test")
	var ran []int
	wq.Queue(func(ctx *Context) {
		ran = append(ran, 1)
		wq.Queue(func(ctx *Context) { ran = append(ran, 2) })
	})
	if wq.Pending() != 1 {
		t.Fatalf("Pending = %d", wq.Pending())
	}
	n := wq.Drain()
	if n != 2 || len(ran) != 2 || ran[0] != 1 || ran[1] != 2 {
		t.Fatalf("Drain ran %d items, order %v", n, ran)
	}
	q, d := wq.Stats()
	if q != 2 || d != 2 {
		t.Fatalf("stats = %d,%d", q, d)
	}
}

// TestWorkqueueSteadyStateAllocFree: a queue that is filled and drained over
// and over reuses one backing array. Popping by reslicing the front away
// (the earlier shape) left the slice at the end of its array after every
// drain, so the next Queue grew a fresh one — for ever, on a queue whose
// depth never passes a handful. A drained item is also dropped from the
// array, so what its closure captured is not kept alive by the queue.
func TestWorkqueueSteadyStateAllocFree(t *testing.T) {
	k := newTestKernel()
	wq := k.NewWorkqueue("test")
	ran := 0
	item := func(ctx *Context) { ran++ }
	requeue := func(ctx *Context) { wq.Queue(item) } // an item may queue another
	cycle := func() {
		wq.Queue(item)
		wq.Queue(requeue)
		wq.Queue(item)
		if n := wq.Drain(); n != 4 {
			t.Errorf("Drain ran %d items, want 4", n)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("queue 3 (+1 requeued) / drain: %v allocs per cycle, want 0", allocs)
	}
	if wq.Pending() != 0 {
		t.Fatalf("Pending = %d after a drain", wq.Pending())
	}
	for i, fn := range wq.items[:cap(wq.items)] {
		if fn != nil {
			t.Fatalf("slot %d still holds a drained item", i)
		}
	}
}

// TestIRQDispatchAllocFree: delivering an interrupt allocates nothing — the
// handler list is read, not copied — and a handler that frees itself (or
// requests another) from inside the dispatch still sees the list it was
// dispatched from.
func TestIRQDispatchAllocFree(t *testing.T) {
	k := newTestKernel()
	count := 0
	_ = k.RequestIRQ(5, "a", func(ctx *Context, irq int, dev any) { count++ }, nil)
	_ = k.RequestIRQ(5, "b", func(ctx *Context, irq int, dev any) { count++ }, nil)
	line := k.Bus().IRQ(5)
	if allocs := testing.AllocsPerRun(200, line.Raise); allocs != 0 {
		t.Fatalf("interrupt dispatch: %v allocs, want 0", allocs)
	}

	var order []string
	_ = k.RequestIRQ(6, "first", func(ctx *Context, irq int, dev any) {
		order = append(order, "first")
		if err := k.FreeIRQ(6, "first"); err != nil {
			t.Error(err)
		}
		_ = k.RequestIRQ(6, "late", func(ctx *Context, irq int, dev any) { order = append(order, "late") }, nil)
	}, nil)
	_ = k.RequestIRQ(6, "second", func(ctx *Context, irq int, dev any) { order = append(order, "second") }, nil)
	k.Bus().IRQ(6).Raise()
	k.Bus().IRQ(6).Raise()
	want := []string{"first", "second", "second", "late"}
	if len(order) != len(want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
}

func TestWorkItemMayBlock(t *testing.T) {
	k := newTestKernel()
	wq := k.NewWorkqueue("test")
	ok := false
	wq.Queue(func(ctx *Context) { ok = ctx.MayBlock() })
	wq.Drain()
	if !ok {
		t.Fatal("work item context may not block")
	}
}

func TestKernelTimerRunsAtomic(t *testing.T) {
	k := newTestKernel()
	var atomic bool
	tm := k.NewTimer("watchdog", func(ctx *Context) { atomic = ctx.InAtomic() })
	tm.Schedule(2 * time.Second)
	k.Clock().Advance(2 * time.Second)
	if !atomic {
		t.Fatal("timer callback context was not atomic (softirq)")
	}
	if tm.Fired() != 1 {
		t.Fatalf("Fired = %d", tm.Fired())
	}
}

func TestPeriodicTimer(t *testing.T) {
	k := newTestKernel()
	count := 0
	tm := k.NewTimer("watchdog", func(ctx *Context) { count++ })
	tm.SchedulePeriodic(2 * time.Second)
	k.Clock().Advance(7 * time.Second)
	if count != 3 {
		t.Fatalf("periodic timer fired %d times in 7s at 2s period, want 3", count)
	}
	tm.Stop()
	k.Clock().Advance(10 * time.Second)
	if count != 3 {
		t.Fatal("timer fired after Stop")
	}
}

func TestTimerDeferToWork(t *testing.T) {
	k := newTestKernel()
	var workRan bool
	var workMayBlock bool
	tm := k.NewTimer("watchdog", func(ctx *Context) {
		// High-priority context: defer user-level work, as Decaf E1000 does.
		k.DeferToWork(func(wctx *Context) {
			workRan = true
			workMayBlock = wctx.MayBlock()
		})
	})
	tm.Schedule(time.Second)
	k.Clock().Advance(time.Second)
	if workRan {
		t.Fatal("work ran before drain")
	}
	k.DefaultWorkqueue().Drain()
	if !workRan || !workMayBlock {
		t.Fatalf("deferred work: ran=%v mayBlock=%v", workRan, workMayBlock)
	}
}

func TestCPUAccounting(t *testing.T) {
	k := newTestKernel()
	ctx := k.NewContext("t")
	ctx.Charge(3 * time.Millisecond)
	ctx.UDelay(1000)
	p, s, h := k.Accounting().Totals()
	if p != 4*time.Millisecond || s != 0 || h != 0 {
		t.Fatalf("Totals = %v,%v,%v", p, s, h)
	}
	if k.Accounting().Busy() != 4*time.Millisecond {
		t.Fatalf("Busy = %v", k.Accounting().Busy())
	}
	k.Accounting().Reset()
	if k.Accounting().Busy() != 0 {
		t.Fatal("Reset did not clear accounting")
	}
}

func TestIRQChargesHardIRQBucket(t *testing.T) {
	k := newTestKernel()
	_ = k.RequestIRQ(4, "x", func(ctx *Context, irq int, dev any) {
		ctx.Charge(10 * time.Microsecond)
	}, nil)
	k.Bus().IRQ(4).Raise()
	_, _, h := k.Accounting().Totals()
	if h != 10*time.Microsecond+IRQCost {
		t.Fatalf("hardirq bucket = %v", h)
	}
}

func TestContextAccountingSeparatesSleep(t *testing.T) {
	k := newTestKernel()
	ctx := k.NewContext("t")
	ctx.Charge(time.Millisecond)
	ctx.MSleep(9)
	if ctx.Busy() != time.Millisecond {
		t.Fatalf("Busy = %v", ctx.Busy())
	}
	if ctx.Elapsed() != 10*time.Millisecond {
		t.Fatalf("Elapsed = %v", ctx.Elapsed())
	}
	ctx.ResetAccounting()
	if ctx.Busy() != 0 || ctx.Elapsed() != 0 {
		t.Fatal("ResetAccounting failed")
	}
}
