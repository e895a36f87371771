//go:build unix

package xpc

import (
	"errors"
	"strings"
	"testing"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
)

// TestProcHandlerExecutesInWorker: a handler-table upcall under the proc
// transport runs the registered body in the worker process — the parent's
// copy of the handler never executes, while the shared state cells the
// worker wrote are visible through the kernel side's shm mapping.
func TestProcHandlerExecutesInWorker(t *testing.T) {
	k, r, _ := newProcRig(t, 4)
	ctx := k.NewContext("test")
	before := testParentRan.Load()
	if err := r.Batch(ctx).CallData(hCount, []byte{42}).Flush(); err != nil {
		t.Fatal(err)
	}
	if got := testParentRan.Load(); got != before {
		t.Fatalf("handler executed %d time(s) in the parent process", got-before)
	}
	st := r.SharedState()
	if served := st.Load(testCellServed); served == 0 {
		t.Fatal("served cell is 0: the worker's write is not visible through the shared mapping")
	}
	if echo := st.Load(testCellEcho); echo != 42 {
		t.Fatalf("echo cell = %d, want 42 (the payload byte the worker read)", echo)
	}
	c := r.Counters()
	if c.WorkerServedCalls != 1 {
		t.Fatalf("WorkerServedCalls = %d, want 1", c.WorkerServedCalls)
	}
	if c.RingCrossings != 1 {
		t.Fatalf("RingCrossings = %d: a downcall-free handler call should ride the lanes", c.RingCrossings)
	}
	if c.Upcalls != 1 {
		t.Fatalf("Upcalls = %d, want 1", c.Upcalls)
	}
}

// TestProcHandlerPanicIsContainedFault: a handler panic in the worker
// surfaces as a contained *UserFault carrying the panic text, the worker is
// killed (physical containment), and a respawned worker serves the next
// call against the SAME shared state — driver state survives the restart.
func TestProcHandlerPanicIsContainedFault(t *testing.T) {
	k, r, pt := newProcRig(t, 1)
	ctx := k.NewContext("test")
	// Seed state through a healthy dispatch first, so survival is testable.
	if err := r.CallData(ctx, hCount, []byte{9}); err != nil {
		t.Fatal(err)
	}
	served := r.SharedState().Load(testCellServed)

	err := r.Call(ctx, hPanic)
	var uf *UserFault
	if !errors.As(err, &uf) {
		t.Fatalf("err = %v, want *UserFault", err)
	}
	wf, ok := uf.Cause.(*WorkerHandlerFault)
	if !ok {
		t.Fatalf("fault cause = %T, want *WorkerHandlerFault", uf.Cause)
	}
	if wf.Call != "xpctest_panic" || !strings.Contains(wf.Panic, "worker-side boom") {
		t.Fatalf("fault = %+v, want the worker's panic text", wf)
	}
	if !IsUserFault(err) {
		t.Fatal("IsUserFault = false for a worker-side panic")
	}
	c := r.Counters()
	if c.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", c.Faults)
	}
	if c.WorkerDeaths == 0 {
		t.Fatal("worker survived a contained fault: containment must be physical")
	}
	oldPID := pt.WorkerPID()

	// The next dispatch respawns and the state cells kept their values.
	if err := r.Call(ctx, hCount); err != nil {
		t.Fatalf("dispatch after respawn: %v", err)
	}
	if pid := pt.WorkerPID(); pid == oldPID {
		t.Fatalf("worker pid %d unchanged after a fault kill", pid)
	}
	if got := r.SharedState().Load(testCellServed); got != served+1 {
		t.Fatalf("served cell = %d after respawn, want %d (state persists across worker epochs)", got, served+1)
	}
	if echo := r.SharedState().Load(testCellEcho); echo != 9 {
		t.Fatalf("echo cell = %d after respawn, want the pre-fault value 9", echo)
	}
}

// TestProcHandlerErrorDoesNotKillWorker: an ordinary error return is a
// result, not a fault — it surfaces with the handler's text and the worker
// keeps serving.
func TestProcHandlerErrorDoesNotKillWorker(t *testing.T) {
	k, r, _ := newProcRig(t, 1)
	ctx := k.NewContext("test")
	err := r.CallData(ctx, hFail, []byte{1})
	if err == nil || !strings.Contains(err.Error(), "requested failure") {
		t.Fatalf("err = %v, want the worker-side error text", err)
	}
	if IsUserFault(err) {
		t.Fatal("an ordinary handler error must not be a fault")
	}
	c := r.Counters()
	if c.WorkerDeaths != 0 || !c.WorkerAlive {
		t.Fatalf("WorkerDeaths=%d WorkerAlive=%v: an error return must not kill the worker", c.WorkerDeaths, c.WorkerAlive)
	}
	if c.WorkerServedCalls != 1 {
		t.Fatalf("WorkerServedCalls = %d: a failing body still executed in the worker", c.WorkerServedCalls)
	}
	if err := r.CallData(ctx, hFail, nil); err != nil {
		t.Fatalf("same worker, next call: %v", err)
	}
}

// TestProcHandlerNestedDowncall: a Down-capable handler rides the lane rings
// like any other call, and its nested downcall runs the kernel-side target
// registered on the runtime — a real FrameDown round trip mid-call, served
// by the lane's holder. A thousand of them take the control mutex zero times
// and touch the socketpair only to ring doorbells.
func TestProcHandlerNestedDowncall(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	var kernelSaw uint64
	r.BindDowncall(dcReadReg, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		kernelSaw = arg
		return arg*2 + 1, nil
	})
	if err := r.Call(ctx, hDown); err != nil {
		t.Fatal(err)
	}
	if kernelSaw != 7 {
		t.Fatalf("kernel downcall target saw arg %d, want 7", kernelSaw)
	}
	if got := r.SharedState().Load(testCellDown); got != 15 {
		t.Fatalf("down cell = %d, want 15 (the downcall's result, stored by the worker)", got)
	}
	c := r.Counters()
	if c.WorkerServedCalls != 1 || c.WorkerDowncalls != 1 {
		t.Fatalf("WorkerServedCalls=%d WorkerDowncalls=%d, want 1/1", c.WorkerServedCalls, c.WorkerDowncalls)
	}
	if c.Upcalls != 1 || c.Downcalls != 1 {
		t.Fatalf("Upcalls=%d Downcalls=%d, want 1/1 (the nested crossing is charged for real)", c.Upcalls, c.Downcalls)
	}
	if c.RingCrossings != 1 {
		t.Fatalf("RingCrossings = %d, want 1: a downcall-capable handler rides the lanes", c.RingCrossings)
	}
	const storm = 1000
	base, wire := pt.ControlAcquires(), c.WireBytesOut+c.WireBytesIn
	for i := 0; i < storm; i++ {
		if err := r.Call(ctx, hDown); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if delta := pt.ControlAcquires() - base; delta != 0 {
		t.Fatalf("%d downcall conversations acquired the control mutex %d times, want 0", storm, delta)
	}
	c = r.Counters()
	if c.SyscallCrossings != c.DoorbellWakeups {
		t.Fatalf("SyscallCrossings = %d, DoorbellWakeups = %d: a downcall conversation may only ring doorbells", c.SyscallCrossings, c.DoorbellWakeups)
	}
	if got := c.WireBytesOut + c.WireBytesIn; got != wire {
		t.Fatalf("%d bytes framed over the socketpair by downcall conversations, want 0", got-wire)
	}
	if c.RingCrossings != storm+1 || c.WorkerDowncalls != storm+1 || c.WorkerServedCalls != storm+1 {
		t.Fatalf("RingCrossings=%d WorkerDowncalls=%d WorkerServedCalls=%d, want %d each",
			c.RingCrossings, c.WorkerDowncalls, c.WorkerServedCalls, storm+1)
	}
}

// TestProcDowncallMidChunk: a downcall-making handler second in a chunk of
// four is a publication barrier, not a reordering — the first body has run
// when the kernel-side target is entered, the two behind it have not, and
// all four are served by the worker, in order, in one ring crossing.
func TestProcDowncallMidChunk(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	// The first crossing binds the runtime's state cells onto the shm window.
	if err := r.Call(ctx, hCount); err != nil {
		t.Fatal(err)
	}
	st := r.SharedState()
	served := st.Load(testCellServed)
	var servedAtDowncall uint64
	r.BindDowncall(dcReadReg, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		servedAtDowncall = st.Load(testCellServed)
		return 99, nil
	})
	subs := handlerSubs(r, "xpctest_count", "xpctest_down", "xpctest_count", "xpctest_count")
	if err := pt.Submit(r, ctx, subs); err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		if err := sub.Completion.Wait(nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if servedAtDowncall != served+1 {
		t.Fatalf("%d bodies had run when the downcall was served, want 1 (the call ahead of it only)", servedAtDowncall-served)
	}
	if got := st.Load(testCellServed); got != served+3 {
		t.Fatalf("served cell moved by %d, want 3", got-served)
	}
	if down, echo := st.Load(testCellDown), st.Load(testCellEcho); down != 99 || echo != 4 {
		t.Fatalf("down cell = %d, echo cell = %d, want 99 and 4 (the last call's payload byte)", down, echo)
	}
	c := r.Counters()
	if c.WorkerServedCalls != 5 || c.WorkerDowncalls != 1 || c.RingCrossings != 2 {
		t.Fatalf("WorkerServedCalls=%d WorkerDowncalls=%d RingCrossings=%d, want 5/1/2 (warm-up included)", c.WorkerServedCalls, c.WorkerDowncalls, c.RingCrossings)
	}
}

// TestProcDowncallFailureAbortsChunkTail: when the downcall's kernel-side
// target fails, the body returns that error, and the chunk aborts exactly as
// for any failing handler — the worker skips the two bodies behind it and
// their submissions resolve aborted; the worker lives.
func TestProcDowncallFailureAbortsChunkTail(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	// The first crossing binds the runtime's state cells onto the shm window.
	if err := r.Call(ctx, hCount); err != nil {
		t.Fatal(err)
	}
	st := r.SharedState()
	served := st.Load(testCellServed)
	r.BindDowncall(dcReadReg, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		return 0, errors.New("register unreadable")
	})
	subs := handlerSubs(r, "xpctest_count", "xpctest_down", "xpctest_count", "xpctest_count")
	err := pt.Submit(r, ctx, subs)
	if err == nil || !strings.Contains(err.Error(), "register unreadable") {
		t.Fatalf("Submit err = %v, want the downcall target's error through the failing body", err)
	}
	if err := subs[0].Completion.Wait(nil); err != nil {
		t.Fatalf("call ahead of the failing one: %v", err)
	}
	if err := subs[1].Completion.Wait(nil); err == nil || !strings.Contains(err.Error(), "register unreadable") || IsUserFault(err) {
		t.Fatalf("failing call resolved %v, want an ordinary error carrying the downcall's text", err)
	}
	for i := 2; i < 4; i++ {
		if err := subs[i].Completion.Wait(nil); !errors.Is(err, ErrCrossingAborted) {
			t.Fatalf("call %d resolved %v, want ErrCrossingAborted", i, err)
		}
	}
	if got := st.Load(testCellServed); got != served+1 {
		t.Fatalf("served cell moved by %d: the worker ran bodies behind the failed one", got-served)
	}
	c := r.Counters()
	if c.WorkerServedCalls != 3 || c.WorkerDeaths != 0 || !c.WorkerAlive {
		t.Fatalf("WorkerServedCalls=%d WorkerDeaths=%d WorkerAlive=%v, want 3/0/true (warm-up, the call ahead, the failing body)", c.WorkerServedCalls, c.WorkerDeaths, c.WorkerAlive)
	}
	// The lane's skip counter was spent with the chunk: the next one runs.
	if err := r.Call(ctx, hCount); err != nil {
		t.Fatal(err)
	}
}

// TestProcDowncallRingWrap: one body making several rings' worth of
// downcalls — every request and every result takes a fresh slot of the
// lane's two rings, so both wrap repeatedly mid-call — on a 4-entry lane and
// on the degenerate 1-entry lane of ProcConfig{Batch: 1}. The call's inline
// payload survives all of it.
func TestProcDowncallRingWrap(t *testing.T) {
	for _, batch := range []int{4, 1} {
		k, r, pt := newProcRig(t, batch)
		ctx := k.NewContext("test")
		n := 3*pt.descEntries + 1
		var want uint64
		r.BindDowncall(dcReadReg, func(kctx *kernel.Context, arg uint64) (uint64, error) {
			want += arg * 3
			return arg * 3, nil
		})
		if err := r.CallData(ctx, hDownMany, []byte{byte(n), 0xAB, 0xCD}); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		st := r.SharedState()
		if got := st.Load(testCellDown); got != want || want == 0 {
			t.Fatalf("batch %d: down cell = %d, want %d (the sum of %d results)", batch, got, want, n)
		}
		if got := st.Load(testCellEcho); got != 0xCD {
			t.Fatalf("batch %d: echo cell = %#x, want 0xCD: the payload did not survive the downcalls", batch, got)
		}
		c := r.Counters()
		if c.WorkerDowncalls != uint64(n) || c.RingCrossings != 1 || c.WorkerServedCalls != 1 {
			t.Fatalf("batch %d: WorkerDowncalls=%d RingCrossings=%d WorkerServedCalls=%d, want %d/1/1",
				batch, c.WorkerDowncalls, c.RingCrossings, c.WorkerServedCalls, n)
		}
		// A downcall-free chunk follows on the same lane without trouble.
		if err := r.CallData(ctx, hCount, []byte{1}); err != nil {
			t.Fatalf("batch %d: next crossing: %v", batch, err)
		}
	}
}

// TestProcWorkerDiesMidDowncall: the worker is SIGKILLed while its body is
// blocked on a downcall the kernel side is serving. The holder finds out when
// it answers — a contained *UserFault wrapping *WorkerDeath, not a hang — its
// lane claim is released (teardown waits for that), and the next crossing
// respawns.
func TestProcWorkerDiesMidDowncall(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	if err := r.Call(ctx, hCount); err != nil {
		t.Fatal(err)
	}
	oldPID, ep := pt.WorkerPID(), pt.epoch.Load()
	r.BindDowncall(dcReadReg, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		if !pt.KillWorker() {
			t.Error("no worker to kill from inside the downcall target")
		}
		return 1, nil
	})
	err := r.Call(ctx, hDown)
	var death *WorkerDeath
	if !IsUserFault(err) || !errors.As(err, &death) || death.PID != oldPID {
		t.Fatalf("err = %v, want a contained *UserFault wrapping the *WorkerDeath of pid %d", err, oldPID)
	}
	for _, lane := range ep.lanes {
		if lane.claim.Load() != 0 {
			t.Fatalf("lane %d still claimed after its holder's worker died", lane.idx)
		}
	}
	if n := pt.laneActive.Load(); n != 0 {
		t.Fatalf("laneActive = %d after the failed crossing, want 0", n)
	}
	r.BindDowncall(dcReadReg, func(kctx *kernel.Context, arg uint64) (uint64, error) { return 5, nil })
	if err := r.Call(ctx, hDown); err != nil {
		t.Fatalf("crossing after the death: %v", err)
	}
	if pid := pt.WorkerPID(); pid == 0 || pid == oldPID {
		t.Fatalf("worker pid = %d after respawn, want a fresh process (old %d)", pid, oldPID)
	}
	if c := r.Counters(); c.WorkerRespawns != 1 || c.WorkerDeaths != 1 || r.SharedState().Load(testCellDown) != 5 {
		t.Fatalf("WorkerRespawns=%d WorkerDeaths=%d down cell=%d, want 1/1/5", c.WorkerRespawns, c.WorkerDeaths, r.SharedState().Load(testCellDown))
	}
}

// TestProcHandlerInjectedFault: an armed injector marks the frame at encode
// time; the worker reports the injection WITHOUT executing the body, and
// the parent surfaces the same *InjectedFault shape inline injection does.
func TestProcHandlerInjectedFault(t *testing.T) {
	k, r, _ := newProcRig(t, 1)
	ctx := k.NewContext("test")
	r.SetFaultInjector(func(call string) bool { return call == "xpctest_count" })
	served := r.SharedState().Load(testCellServed)
	err := r.Call(ctx, hCount)
	var uf *UserFault
	if !errors.As(err, &uf) {
		t.Fatalf("err = %v, want *UserFault", err)
	}
	if _, ok := uf.Cause.(*InjectedFault); !ok {
		t.Fatalf("fault cause = %T, want *InjectedFault", uf.Cause)
	}
	if got := r.SharedState().Load(testCellServed); got != served {
		t.Fatal("handler body executed despite the injected fault")
	}
	c := r.Counters()
	if c.FaultsInjected != 1 || c.Faults != 1 {
		t.Fatalf("FaultsInjected=%d Faults=%d, want 1/1", c.FaultsInjected, c.Faults)
	}
	if c.WorkerServedCalls != 0 {
		t.Fatalf("WorkerServedCalls = %d: an injected call's body must not count as served", c.WorkerServedCalls)
	}
	r.SetFaultInjector(nil)
	if err := r.Call(ctx, hCount); err != nil {
		t.Fatalf("call failed after disarm: %v", err)
	}
}

// TestProcHandlerChunkAbort: when an early handler in a chunk fails, the
// worker skips the chunk's remaining handler bodies — mirroring the kernel
// side's abort — so exactly one body ran.
func TestProcHandlerChunkAbort(t *testing.T) {
	k, r, _ := newProcRig(t, 4)
	ctx := k.NewContext("test")
	served := r.SharedState().Load(testCellServed)
	err := r.Batch(ctx).
		CallData(hFail, []byte{1}).
		CallData(hFail, nil).
		CallData(hFail, nil).
		Flush()
	if err == nil || !strings.Contains(err.Error(), "requested failure") {
		t.Fatalf("err = %v, want the first call's failure", err)
	}
	if got := r.SharedState().Load(testCellServed); got != served {
		t.Fatalf("served cell moved by %d: the worker executed bodies after the chunk aborted", got-served)
	}
	c := r.Counters()
	if c.WorkerServedCalls != 1 {
		t.Fatalf("WorkerServedCalls = %d, want 1 (the failing body only)", c.WorkerServedCalls)
	}
}

// TestInlineHandlerDispatch: the same registered handler dispatches inline
// under the in-process transports — same body, same state cells, no worker
// involved — so the cost model comparison across transports holds.
func TestInlineHandlerDispatch(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("test")
	before := testParentRan.Load()
	servedBefore := r.SharedState().Load(testCellServed)
	if err := r.CallData(ctx, hCount, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if got := testParentRan.Load(); got != before+1 {
		t.Fatalf("inline dispatch ran the handler %d time(s), want 1", got-before)
	}
	if got := r.SharedState().Load(testCellServed); got != servedBefore+1 {
		t.Fatalf("served cell = %d, want %d", got, servedBefore+1)
	}
	if echo := r.SharedState().Load(testCellEcho); echo != 7 {
		t.Fatalf("echo cell = %d, want 7", echo)
	}
	c := r.Counters()
	if c.WorkerServedCalls != 0 {
		t.Fatalf("WorkerServedCalls = %d under an in-process transport, want 0", c.WorkerServedCalls)
	}
	if c.Upcalls != 1 {
		t.Fatalf("Upcalls = %d, want 1", c.Upcalls)
	}
}

// TestInlineHandlerDowncall: an inline Down-capable handler's nested
// downcall crosses through the runtime's registered target as a real
// Downcall.
func TestInlineHandlerDowncall(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("test")
	r.BindDowncall(dcReadReg, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		return arg * 3, nil
	})
	if err := r.Call(ctx, hDown); err != nil {
		t.Fatal(err)
	}
	if got := r.SharedState().Load(testCellDown); got != 21 {
		t.Fatalf("down cell = %d, want 21", got)
	}
	c := r.Counters()
	if c.Upcalls != 1 || c.Downcalls != 1 {
		t.Fatalf("Upcalls=%d Downcalls=%d, want 1/1", c.Upcalls, c.Downcalls)
	}
}

// TestNativeHandlerDispatch: in ModeNative a handler call is a plain
// function call — no crossing, downcalls invoked directly.
func TestNativeHandlerDispatch(t *testing.T) {
	k := newTestKernel()
	r := &Runtime{Kernel: k, Mode: ModeNative}
	ctx := k.NewContext("test")
	r.BindDowncall(dcReadReg, func(kctx *kernel.Context, arg uint64) (uint64, error) {
		return 100, nil
	})
	if err := r.Call(ctx, hDown); err != nil {
		t.Fatal(err)
	}
	if got := r.SharedState().Load(testCellDown); got != 100 {
		t.Fatalf("down cell = %d, want 100", got)
	}
	// A slot-staged payload carries no Data: the native body must read the
	// ring slot's bytes, as every other dispatcher's does.
	if err := r.RegisterPayloadRing(ctx, NewPayloadRing(2, 64)); err != nil {
		t.Fatal(err)
	}
	p := r.AcquirePayload([]byte{77, 1, 2})
	if !p.Slot.Valid() || p.Data != nil {
		t.Fatalf("payload = %+v, want slot-staged with no Data", p)
	}
	if err := r.Batch(ctx).CallPayload(hCount, p).Flush(); err != nil {
		t.Fatal(err)
	}
	r.ReleasePayload(p)
	if got := r.SharedState().Load(testCellEcho); got != 77 {
		t.Fatalf("echo cell = %d, want 77 (the slot's first byte)", got)
	}
}

// TestHandlerUnknownNameFailsLoudly: a by-name dispatch of an unregistered
// handler, and a dispatch of a Handler that Register never returned, fail
// at call creation, on the submitting side.
func TestHandlerUnknownNameFailsLoudly(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("test")
	err := r.UpcallHandlerData(ctx, "xpctest_no_such_handler", nil)
	if err == nil || !strings.Contains(err.Error(), "no handler registered") {
		t.Fatalf("err = %v, want a missing-registration error", err)
	}
	if err := r.Batch(ctx).UpcallHandler("xpctest_no_such_handler").Flush(); err == nil {
		t.Fatal("batch dispatch of an unregistered handler succeeded")
	}
	stray := &registry.Handler{Fn: func(*registry.Ctx) error { return nil }}
	if err := r.Call(ctx, stray); err == nil || !strings.Contains(err.Error(), "no handler registered") {
		t.Fatalf("dispatch of a never-registered Handler = %v, want a missing-registration error", err)
	}
}
