package xpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"decafdrivers/internal/kernel"
)

func TestBatchOneCrossingForManyCalls(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 8})
	ctx := k.NewContext("t")

	served := r.SharedState().Load(testCellServed)
	b := r.Batch(ctx)
	for i := 0; i < 5; i++ {
		b.Call(hCount)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if ran := r.SharedState().Load(testCellServed) - served; ran != 5 {
		t.Fatalf("ran %d of 5 calls", ran)
	}
	c := r.Counters()
	if c.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1 crossing for the whole batch", c.Trips())
	}
	if c.Batches != 1 || c.BatchedCalls != 5 {
		t.Fatalf("Batches = %d BatchedCalls = %d, want 1/5", c.Batches, c.BatchedCalls)
	}
	if c.PerCall["xpctest_count"] != 5 {
		t.Fatalf("PerCall[xpctest_count] = %d, want every call counted", c.PerCall["xpctest_count"])
	}
}

func TestBatchAutoFlushAtMaxBatch(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 4})
	ctx := k.NewContext("t")

	b := r.Batch(ctx)
	for i := 0; i < 10; i++ {
		b.Call(hSink)
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
		b.Call(hSink)
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

	served := r.SharedState().Load(testCellServed)
	b := r.Batch(ctx)
	b.Call(hCount)
	if r.SharedState().Load(testCellServed)-served != 1 {
		t.Fatal("native batch call did not run immediately")
	}
	if ctx.Busy() != xpctestCountCost {
		t.Fatalf("caller busy %v, want the body's own %v: a native call runs on the caller's context", ctx.Busy(), xpctestCountCost)
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
			b.Call(hSink)
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
	ctx := k.NewContext("t")

	served := r.SharedState().Load(testCellServed)
	err := r.Batch(ctx).Call(hCount).Call(hPanic).Call(hCount).Flush()
	var fault *UserFault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want *UserFault", err)
	}
	if ran := r.SharedState().Load(testCellServed) - served; ran != 1 {
		t.Fatalf("%d counting calls ran, want only the pre-fault one", ran)
	}
}

// TestBatchErrorStopsExecutionButSyncsCompleted: an ordinary error stops
// the calls behind it, while what the calls before it wrote stands — a
// handler's state cells are shared memory, so there is nothing to roll back
// or sync after the fact.
func TestBatchErrorStopsExecutionButSyncsCompleted(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 8})
	ctx := k.NewContext("t")

	served := r.SharedState().Load(testCellServed)
	b := r.Batch(ctx)
	b.CallData(hStore, []byte{7})
	b.CallData(hFail, []byte{1})
	b.Call(hCount)
	if err := b.Flush(); err == nil || !strings.Contains(err.Error(), "requested failure") {
		t.Fatalf("err = %v, want the requested failure", err)
	}
	if r.SharedState().Load(testCellServed) != served {
		t.Fatal("call after the failing one still ran")
	}
	if got := r.SharedState().Load(testCellStore); got != 7 {
		t.Fatalf("completed call's state cell = %d after a later error, want 7", got)
	}
}

func TestBatchStickyErrorDropsLaterCalls(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")

	served := r.SharedState().Load(testCellServed)
	b := r.Batch(ctx)
	b.CallData(hFail, []byte{1})
	// The per-call default auto-flushes per call, so the error is already sticky.
	b.Call(hCount)
	if err := b.Flush(); err == nil || !strings.Contains(err.Error(), "requested failure") {
		t.Fatalf("err = %v, want the requested failure", err)
	}
	if r.SharedState().Load(testCellServed) != served {
		t.Fatal("call queued after a sticky error still ran")
	}
	// The batch is reusable after Flush clears the sticky error.
	err := b.Call(hCount).Flush()
	if ran := r.SharedState().Load(testCellServed) - served; err != nil || ran != 1 {
		t.Fatalf("reused batch: err = %v ran = %d", err, ran)
	}
}

func TestBatchDataPaysPerByte(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetTransport(BatchTransport{N: 4})
	ctx := k.NewContext("t")

	payload := make([]byte, 1024)
	b := r.Batch(ctx)
	b.CallData(hSink, payload)
	b.CallData(hSink, payload)
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

func TestBatchNativeModeFlushAsyncSettled(t *testing.T) {
	k := newTestKernel()
	r := NewRuntime(k, "test", ModeNative, nil)
	ctx := k.NewContext("t")

	served := r.SharedState().Load(testCellServed)
	b := r.Batch(ctx)
	b.Call(hCount)
	if r.SharedState().Load(testCellServed)-served != 1 {
		t.Fatal("native batch call did not run immediately")
	}
	// Native mode never crosses; FlushAsync must hand back an
	// already-settled handle with nothing pending.
	done := b.FlushAsync()
	if !done.Settled() {
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

	served := r.SharedState().Load(testCellServed)
	b := r.Batch(ctx)
	b.Call(hCount)
	// Reaching MaxBatch=2 auto-flushes; the second call fails inside it.
	b.CallData(hFail, []byte{1})
	if b.err == nil {
		t.Fatal("auto-flush error not sticky")
	}
	b.Call(hCount)
	if err := b.Flush(); err == nil || !strings.Contains(err.Error(), "requested failure") {
		t.Fatalf("err = %v, want the requested failure", err)
	}
	if ran := r.SharedState().Load(testCellServed) - served; ran != 1 {
		t.Fatalf("%d counting calls ran, want 1: a call queued after the sticky auto-flush error still ran", ran)
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
	b.Call(hSink)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if b.s != nil || b.err != nil {
		t.Fatalf("batch not clean after Flush: submission %v err=%v", b.s, b.err)
	}
	if err := b.CallData(hFail, []byte{1}).Flush(); err == nil || !strings.Contains(err.Error(), "requested failure") {
		t.Fatalf("err = %v, want the requested failure", err)
	}
	served := r.SharedState().Load(testCellServed)
	err := b.Call(hCount).Flush()
	if ran := r.SharedState().Load(testCellServed) - served; err != nil || ran != 1 {
		t.Fatalf("reuse after failed flush: err=%v ran=%d", err, ran)
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
}
