package xpc

import (
	"errors"
	"testing"
	"time"

	"decafdrivers/internal/kernel"
)

func TestBatchOneCrossingForManyCalls(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 8})
	ctx := k.NewContext("t")

	ran := 0
	b := r.Batch(ctx)
	for i := 0; i < 5; i++ {
		b.Upcall("xmit", func(uctx *kernel.Context) error {
			ran++
			return nil
		})
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if ran != 5 {
		t.Fatalf("ran %d of 5 calls", ran)
	}
	c := r.Counters()
	if c.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1 crossing for the whole batch", c.Trips())
	}
	if c.Batches != 1 || c.BatchedCalls != 5 {
		t.Fatalf("Batches = %d BatchedCalls = %d, want 1/5", c.Batches, c.BatchedCalls)
	}
	if c.PerCall["xmit"] != 5 {
		t.Fatalf("PerCall[xmit] = %d, want every call counted", c.PerCall["xmit"])
	}
}

func TestBatchAutoFlushAtMaxBatch(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 4})
	ctx := k.NewContext("t")

	b := r.Batch(ctx)
	for i := 0; i < 10; i++ {
		b.Upcall("xmit", func(uctx *kernel.Context) error { return nil })
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	// 10 calls at N=4: two full auto-flushed batches plus a final 2-call
	// batch = 3 crossings.
	c := r.Counters()
	if c.Trips() != 3 {
		t.Fatalf("Trips = %d, want 3", c.Trips())
	}
	if c.BatchedCalls != 10 {
		t.Fatalf("BatchedCalls = %d, want 10", c.BatchedCalls)
	}
}

func TestBatchUnderSyncTransportCrossesPerCall(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")

	b := r.Batch(ctx)
	for i := 0; i < 6; i++ {
		b.Upcall("xmit", func(uctx *kernel.Context) error { return nil })
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	c := r.Counters()
	if c.Trips() != 6 {
		t.Fatalf("Trips = %d, want 6 (one crossing per call under the default transport)", c.Trips())
	}
	if c.Batches != 0 {
		t.Fatalf("Batches = %d, want 0", c.Batches)
	}
}

func TestBatchNativeModeRunsImmediately(t *testing.T) {
	k := newTestKernel()
	r := NewRuntime(k, "test", ModeNative, nil)
	ctx := k.NewContext("t")

	ran := 0
	b := r.Batch(ctx)
	b.Upcall("fn", func(uctx *kernel.Context) error {
		ran++
		if uctx != ctx {
			t.Error("native batch call switched context")
		}
		return nil
	})
	if ran != 1 {
		t.Fatal("native batch call did not run immediately")
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Counters().Trips() != 0 {
		t.Fatal("native mode counted a crossing")
	}
}

func TestBatchChargesBaseOnce(t *testing.T) {
	k := newTestKernel()
	rBatch := newDecafRuntime(k)
	rBatch.SetTransport(BatchTransport{N: 16})
	rSync := newDecafRuntime(k)

	const calls = 8
	run := func(r *Runtime, name string) *kernel.Context {
		ctx := k.NewContext(name)
		b := r.Batch(ctx)
		for i := 0; i < calls; i++ {
			b.Upcall("fn", func(uctx *kernel.Context) error { return nil })
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	syncCtx := run(rSync, "sync")
	batchCtx := run(rBatch, "batch")

	m := DefaultLatencyModel
	wantSync := time.Duration(calls) * (m.KernelUserBase + m.CJavaBase)
	wantBatch := m.KernelUserBase + time.Duration(calls)*m.CJavaBase
	if syncCtx.Elapsed() != wantSync {
		t.Fatalf("sync elapsed %v, want %v", syncCtx.Elapsed(), wantSync)
	}
	if batchCtx.Elapsed() != wantBatch {
		t.Fatalf("batched elapsed %v, want %v (KernelUserBase paid once)", batchCtx.Elapsed(), wantBatch)
	}
}

func TestBatchFaultAbortsRemainingCalls(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 8})
	ka, da := &adapter{MsgEnable: 5}, &adapter{}
	_, _ = r.Share(ka, da)
	ctx := k.NewContext("t")

	ran := []string{}
	b := r.Batch(ctx)
	b.Upcall("first", func(uctx *kernel.Context) error {
		ran = append(ran, "first")
		return nil
	}, ka)
	b.Upcall("buggy", func(uctx *kernel.Context) error {
		da.MsgEnable = 99
		panic("NullPointerException")
	}, ka)
	b.Upcall("third", func(uctx *kernel.Context) error {
		ran = append(ran, "third")
		return nil
	}, ka)
	err := b.Flush()
	var fault *UserFault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want *UserFault", err)
	}
	if len(ran) != 1 || ran[0] != "first" {
		t.Fatalf("ran = %v, want only the pre-fault call", ran)
	}
	// State from the faulted batch must not leak back into the kernel.
	if ka.MsgEnable != 5 {
		t.Fatalf("faulted user state synced to kernel: MsgEnable = %d", ka.MsgEnable)
	}
}

func TestBatchErrorStopsExecutionButSyncsCompleted(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 8})
	ka, da := &adapter{}, &adapter{}
	_, _ = r.Share(ka, da)
	ctx := k.NewContext("t")
	boom := errors.New("EIO")

	third := false
	b := r.Batch(ctx)
	b.Upcall("first", func(uctx *kernel.Context) error {
		da.MsgEnable = 7
		return nil
	}, ka)
	b.Upcall("second", func(uctx *kernel.Context) error { return boom })
	b.Upcall("third", func(uctx *kernel.Context) error {
		third = true
		return nil
	})
	if err := b.Flush(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if third {
		t.Fatal("call after the failing one still ran")
	}
	if ka.MsgEnable != 7 {
		t.Fatal("completed call's state not synced back after a later error")
	}
}

func TestBatchStickyErrorDropsLaterCalls(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	boom := errors.New("bad")

	after := false
	b := r.Batch(ctx)
	b.Upcall("fails", func(uctx *kernel.Context) error { return boom })
	// The per-call default auto-flushes per call, so the error is already sticky.
	b.Upcall("after", func(uctx *kernel.Context) error {
		after = true
		return nil
	})
	if err := b.Flush(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if after {
		t.Fatal("call queued after a sticky error still ran")
	}
	// The batch is reusable after Flush clears the sticky error.
	ok := false
	b.Upcall("retry", func(uctx *kernel.Context) error {
		ok = true
		return nil
	})
	if err := b.Flush(); err != nil || !ok {
		t.Fatalf("reused batch: err = %v ran = %v", err, ok)
	}
}

func TestBatchDataPaysPerByte(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 4})
	ctx := k.NewContext("t")

	payload := make([]byte, 1024)
	b := r.Batch(ctx)
	b.UpcallHandlerData("xpcbench_sink", payload)
	b.UpcallHandlerData("xpcbench_sink", payload)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	c := r.Counters()
	want := uint64(2 * (len(payload) + 4))
	if c.BytesKernelUser != want || c.BytesCJava != want {
		t.Fatalf("bytes = %d/%d, want %d on both legs", c.BytesKernelUser, c.BytesCJava, want)
	}
	if ctx.Busy() == 0 {
		t.Fatal("payload transfer charged no CPU")
	}
}

func TestBatchDirectionChangeFlushes(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 8})
	ctx := k.NewContext("t")

	b := r.Batch(ctx)
	b.Upcall("up1", func(uctx *kernel.Context) error { return nil })
	b.Upcall("up2", func(uctx *kernel.Context) error { return nil })
	// Direction change: the two queued upcalls must flush as one crossing
	// before the downcalls queue.
	b.Downcall("down1", func(kctx *kernel.Context) error { return nil })
	b.Downcall("down2", func(kctx *kernel.Context) error { return nil })
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	c := r.Counters()
	if c.Upcalls != 1 || c.Downcalls != 1 {
		t.Fatalf("Upcalls/Downcalls = %d/%d, want 1/1 (one crossing per direction)", c.Upcalls, c.Downcalls)
	}
	if c.BatchedCalls != 4 {
		t.Fatalf("BatchedCalls = %d, want 4", c.BatchedCalls)
	}
}

func TestBatchedDowncallsDoNotMaskIRQs(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 4})
	r.DisableIRQs = []int{9}
	line := k.Bus().IRQ(9)
	ctx := k.NewContext("t")

	b := r.Batch(ctx)
	for i := 0; i < 2; i++ {
		b.Downcall("down", func(kctx *kernel.Context) error {
			if line.Disabled() {
				t.Error("downcall batch masked the driver's IRQs")
			}
			return nil
		})
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchNativeModeFlushAsyncSettled(t *testing.T) {
	k := newTestKernel()
	r := NewRuntime(k, "test", ModeNative, nil)
	ctx := k.NewContext("t")

	ran := 0
	b := r.Batch(ctx)
	b.Upcall("fn", func(uctx *kernel.Context) error {
		ran++
		return nil
	})
	if ran != 1 {
		t.Fatal("native batch call did not run immediately")
	}
	// Native mode never crosses; FlushAsync must hand back an
	// already-settled handle with nothing pending.
	done := b.FlushAsync()
	if !done.Settled(k.Clock().Now()) {
		t.Fatal("native FlushAsync handle not settled")
	}
	if err := done.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if r.Counters().Trips() != 0 {
		t.Fatal("native mode counted a crossing")
	}
}

// TestBatchStickyErrorAfterAutoFlush pins the auto-flush edge case: when the
// queue reaches MaxBatch and the flushed crossing fails, the error must be
// sticky — later adds are dropped and Flush reports the auto-flush error.
func TestBatchStickyErrorAfterAutoFlush(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 2})
	ctx := k.NewContext("t")
	boom := errors.New("EIO")

	after := false
	b := r.Batch(ctx)
	b.Upcall("ok", func(uctx *kernel.Context) error { return nil })
	// Reaching MaxBatch=2 auto-flushes; the second call fails inside it.
	b.Upcall("fails", func(uctx *kernel.Context) error { return boom })
	if b.Err() == nil {
		t.Fatal("auto-flush error not sticky")
	}
	b.Upcall("after", func(uctx *kernel.Context) error {
		after = true
		return nil
	})
	if err := b.Flush(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if after {
		t.Fatal("call queued after the sticky auto-flush error still ran")
	}
}

// TestBatchDirectionChangeExecutionOrder pins the ordering half of the
// direction-change flush: the queued upcalls must execute before the
// downcall that forced the flush, preserving program order across the
// direction boundary.
func TestBatchDirectionChangeExecutionOrder(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 8})
	ctx := k.NewContext("t")

	var order []string
	b := r.Batch(ctx)
	b.Upcall("up1", func(uctx *kernel.Context) error {
		order = append(order, "up1")
		return nil
	})
	b.Upcall("up2", func(uctx *kernel.Context) error {
		order = append(order, "up2")
		return nil
	})
	b.Downcall("down1", func(kctx *kernel.Context) error {
		order = append(order, "down1")
		return nil
	})
	b.Upcall("up3", func(uctx *kernel.Context) error {
		order = append(order, "up3")
		return nil
	})
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{"up1", "up2", "down1", "up3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Three direction segments = three crossings.
	if got := r.Counters().Trips(); got != 3 {
		t.Fatalf("Trips = %d, want 3", got)
	}
}

// TestBatchReuseAfterFlush pins builder reuse: after Flush the batch queues
// and flushes again from a clean state, whether the previous flush
// succeeded or failed.
func TestBatchReuseAfterFlush(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 4})
	ctx := k.NewContext("t")

	b := r.Batch(ctx)
	b.Upcall("first", func(uctx *kernel.Context) error { return nil })
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 || b.Outstanding() != 0 || b.Err() != nil {
		t.Fatalf("batch not clean after Flush: len=%d outstanding=%d err=%v", b.Len(), b.Outstanding(), b.Err())
	}
	boom := errors.New("bad")
	b.Upcall("fails", func(uctx *kernel.Context) error { return boom })
	if err := b.Flush(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	ok := false
	b.Upcall("again", func(uctx *kernel.Context) error {
		ok = true
		return nil
	})
	if err := b.Flush(); err != nil || !ok {
		t.Fatalf("reuse after failed flush: err=%v ran=%v", err, ok)
	}
	if got := r.Counters().Trips(); got != 3 {
		t.Fatalf("Trips = %d, want 3", got)
	}
}

func TestTransportNames(t *testing.T) {
	r := newDecafRuntime(newTestKernel())
	if def := r.Transport(); def.Name() != "per-call" || def.MaxBatch() != 1 || def != Transport(BatchTransport{N: 1}) {
		t.Fatalf("default transport = %#v (%s), want BatchTransport{N: 1} named per-call", def, def.Name())
	}
	if (BatchTransport{N: 32}).Name() != "batched(32)" {
		t.Fatal("BatchTransport name")
	}
	if (BatchTransport{}).MaxBatch() != DefaultBatchSize {
		t.Fatal("zero-value BatchTransport batch size")
	}
	a := NewAsyncTransport(AsyncConfig{Depth: 128, Batch: 32})
	if a.Name() != "async(q128,b32)" {
		t.Fatalf("AsyncTransport name = %s", a.Name())
	}
	if a.MaxBatch() != 32 || a.QueueDepth() != 128 {
		t.Fatal("AsyncTransport sizing")
	}
	if NewAsyncTransport(AsyncConfig{}).QueueDepth() != DefaultQueueDepth {
		t.Fatal("zero-value AsyncConfig depth")
	}
}
