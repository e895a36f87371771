//go:build unix

package xpc

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/xdr"
)

// TestMain routes the re-exec'd test binary into the decaf worker loop: a
// ProcTransport under test spawns the current executable, and without this
// hook the child would run the test suite instead of serving the wire
// protocol.
func TestMain(m *testing.M) {
	MaybeRunWorker()
	os.Exit(m.Run())
}

// newProcRig builds a runtime with a ProcTransport installed, plus a
// cleanup that releases the worker and shared region.
func newProcRig(t *testing.T, batch int) (*kernel.Kernel, *Runtime, *ProcTransport) {
	t.Helper()
	k := newTestKernel()
	r := newDecafRuntime(k)
	pt, err := NewProcTransport(ProcConfig{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	r.SetTransport(pt)
	t.Cleanup(func() { r.SetTransport(nil) }) // SetTransport closes the old transport
	return k, r, pt
}

func TestProcUpcallCrossesRealProcess(t *testing.T) {
	k, r, pt := newProcRig(t, 1)
	ctx := k.NewContext("test")
	served, ran := r.SharedState().Load(testCellServed), testParentRan.Load()
	if err := r.Call(ctx, hCount); err != nil {
		t.Fatal(err)
	}
	// The body ran in the worker: the shared cell moved, while the parent's
	// copy of the handler never ran.
	if r.SharedState().Load(testCellServed) != served+1 || testParentRan.Load() != ran {
		t.Fatal("upcall body did not run in the worker")
	}
	if pid := pt.WorkerPID(); pid <= 0 || pid == os.Getpid() {
		t.Fatalf("worker pid = %d, want a live separate process", pid)
	}
	c := r.Counters()
	if c.Upcalls != 1 {
		t.Fatalf("Upcalls = %d", c.Upcalls)
	}
	if c.RingCrossings != 1 {
		t.Fatalf("RingCrossings = %d, want 1 (steady-state crossings ride the descriptor rings)", c.RingCrossings)
	}
	// Syscalls are doorbell wakeups only now: the crossing itself moved
	// through shared memory.
	if c.SyscallCrossings != c.DoorbellWakeups {
		t.Fatalf("SyscallCrossings = %d, DoorbellWakeups = %d: ring crossings must not write the wire", c.SyscallCrossings, c.DoorbellWakeups)
	}
	// The socketpair is silent but for one acknowledgement per worker epoch:
	// the kernel side writes nothing to it.
	ack := uint64(xdr.FrameWireSize(xdr.Frame{Kind: xdr.FrameComplete}))
	if c.WireBytesOut != 0 || c.WireBytesIn != (c.WorkerRespawns+1)*ack {
		t.Fatalf("wire bytes out/in = %d/%d, want 0/%d (one %dB ack for each of %d epochs)",
			c.WireBytesOut, c.WireBytesIn, (c.WorkerRespawns+1)*ack, ack, c.WorkerRespawns+1)
	}
	if c.DescRingEntries == 0 || c.DescRingPeak == 0 {
		t.Fatalf("DescRingEntries=%d DescRingPeak=%d, want both > 0 after a ring crossing", c.DescRingEntries, c.DescRingPeak)
	}
	if !c.WorkerAlive {
		t.Fatal("worker not alive after a crossing")
	}
}

// TestProcTransportBoundToOneRuntime: the worker process, its lanes and the
// shared state cells belong to the runtime that first submitted, so another
// runtime's Submit is refused whole — every completion resolves with
// ErrTransportBound, nothing stays in flight — and the owner still crosses.
func TestProcTransportBoundToOneRuntime(t *testing.T) {
	k, r1, pt := newProcRig(t, 4)
	ctx := k.NewContext("t")
	if err := r1.Call(ctx, hSink); err != nil {
		t.Fatal(err)
	}
	r2 := newDecafRuntime(k)
	subs := handlerSubs(r2, "xpcbench_sink", "xpcbench_sink")
	if err := pt.Submit(r2, ctx, subs); !errors.Is(err, ErrTransportBound) {
		t.Fatalf("cross-runtime submit: err = %v, want ErrTransportBound", err)
	}
	for i, sub := range subs {
		if err := sub.Completion.outcome(); !errors.Is(err, ErrTransportBound) {
			t.Fatalf("completion %d err = %v, want ErrTransportBound", i, err)
		}
	}
	if c := r2.Counters(); c.InFlight != 0 {
		t.Fatalf("refused runtime InFlight = %d, want 0", c.InFlight)
	}
	if err := r1.Call(ctx, hSink); err != nil {
		t.Fatalf("owner crossing after a refused submit: %v", err)
	}
	if c := r1.Counters(); c.InFlight != 0 || c.RingCrossings != 2 {
		t.Fatalf("owner InFlight = %d, RingCrossings = %d, want 0 and 2", c.InFlight, c.RingCrossings)
	}
}

func TestProcBatchCoalescesIntoOneWireCrossing(t *testing.T) {
	const n = 4
	k, r, _ := newProcRig(t, n)
	ctx := k.NewContext("test")
	b := r.Batch(ctx)
	for i := 0; i < n; i++ {
		b.Call(hSink)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	c := r.Counters()
	if c.Upcalls != 1 || c.Batches != 1 || c.BatchedCalls != n {
		t.Fatalf("Upcalls=%d Batches=%d BatchedCalls=%d, want 1/1/%d", c.Upcalls, c.Batches, c.BatchedCalls, n)
	}
	if c.RingCrossings != 1 {
		t.Fatalf("RingCrossings = %d: the chunk split into multiple boundary trips", c.RingCrossings)
	}
	// No lower bound beyond 1: how much of the chunk is still in the ring when
	// the last frame publishes says how fast the worker is, not how the chunk
	// was sent.
	if c.DescRingPeak < 1 || c.DescRingPeak > n {
		t.Fatalf("DescRingPeak = %d, want within [1, %d]", c.DescRingPeak, n)
	}
}

func TestProcNestedDowncallFromUpcallBody(t *testing.T) {
	k, r, _ := newProcRig(t, 4)
	ctx := k.NewContext("test")
	inner := false
	r.BindDowncall(dcReadReg, func(*kernel.Context, uint64) (uint64, error) {
		inner = true
		return 0, nil
	})
	if err := r.Call(ctx, hDown); err != nil || !inner {
		t.Fatalf("nested downcall: err=%v inner=%v", err, inner)
	}
	// The downcall rides the upcall's own lane: one ring crossing for both.
	c := r.Counters()
	if c.Upcalls != 1 || c.Downcalls != 1 || c.WorkerDowncalls != 1 || c.RingCrossings != 1 {
		t.Fatalf("Upcalls=%d Downcalls=%d WorkerDowncalls=%d RingCrossings=%d", c.Upcalls, c.Downcalls, c.WorkerDowncalls, c.RingCrossings)
	}
}

// TestProcOversizedPayloadRejectedCleanly: a copy-path payload a descriptor
// slot cannot hold is refused at admission, before any lane is claimed: an
// ordinary error, not a fault; nothing crossed, the worker is the same
// process and was not respawned; and the next crossing rides the rings as
// if nothing had happened. A handler name longer than any frame could carry
// is no reason to refuse: the call crosses as its table index, and its body
// runs in the worker.
func TestProcOversizedPayloadRejectedCleanly(t *testing.T) {
	k, r, pt := newProcRig(t, 2)
	ctx := k.NewContext("test")
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatal(err)
	}
	pid, before, served := pt.WorkerPID(), r.Counters(), r.SharedState().Load(testCellServed)
	for _, tc := range []struct {
		what string
		call func(b *Batch) *Batch
	}{
		{"payload one byte over a slot", func(b *Batch) *Batch {
			return b.CallData(hCount, bytes.Repeat([]byte{0x42}, descSlotBytes+1))
		}},
		{"payload over the frame codec's limit", func(b *Batch) *Batch {
			return b.CallData(hCount, make([]byte, 1<<20+1))
		}},
	} {
		err := tc.call(r.Batch(ctx)).Flush()
		var uf *UserFault
		if !errors.Is(err, errProcEncode) || errors.As(err, &uf) {
			t.Fatalf("%s: err = %v, want a plain errProcEncode", tc.what, err)
		}
	}
	if got := r.SharedState().Load(testCellServed); got != served {
		t.Fatalf("the body of a refused call ran %d time(s) in the worker", got-served)
	}
	c := r.Counters()
	if c.RingCrossings != before.RingCrossings || c.SyscallCrossings != before.SyscallCrossings ||
		c.WireBytesOut != before.WireBytesOut || c.LaneAcquisitions != before.LaneAcquisitions || c.Faults != 0 {
		t.Fatalf("a refused chunk left a mark: before %+v\nafter %+v", before, c)
	}
	if pt.WorkerPID() != pid || c.WorkerRespawns != 0 || c.WorkerDeaths != 0 || !c.WorkerAlive {
		t.Fatalf("pid %d -> %d, WorkerRespawns=%d WorkerDeaths=%d WorkerAlive=%v: a refusal must not touch the worker",
			pid, pt.WorkerPID(), c.WorkerRespawns, c.WorkerDeaths, c.WorkerAlive)
	}
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.RingCrossings != before.RingCrossings+1 {
		t.Fatalf("RingCrossings moved by %d after the refusals, want 1", c.RingCrossings-before.RingCrossings)
	}
	parentRan := testParentRan.Load()
	if err := r.Call(ctx, hLongName); err != nil {
		t.Fatalf("a %dB handler name: %v, want the call to cross by index", len(longNameHandler), err)
	}
	if got := r.SharedState().Load(testCellServed); got != served+1 || testParentRan.Load() != parentRan {
		t.Fatalf("long-name body: served cell %d -> %d, parent-side runs %d -> %d, want one run in the worker",
			served, got, parentRan, testParentRan.Load())
	}
	if pt.WorkerPID() != pid {
		t.Fatalf("worker pid %d -> %d across the long-name call", pid, pt.WorkerPID())
	}
}

// TestProcWorkerRejectsCallsOnSocket: the control socketpair carries no
// calls. A submit or call frame arriving there is an unexpected frame like
// any other — the worker exits with its protocol-violation status instead of
// serving it — and the next crossing runs on a fresh worker.
func TestProcWorkerRejectsCallsOnSocket(t *testing.T) {
	for _, kind := range []xdr.FrameKind{xdr.FrameSubmit, xdr.FrameCall} {
		k, r, pt := newProcRig(t, 1)
		ctx := k.NewContext("test")
		if err := r.Call(ctx, hCount); err != nil {
			t.Fatal(err)
		}
		served := r.SharedState().Load(testCellServed)
		w := pt.epoch.Load().w
		wire, err := xdr.AppendFrame(nil, xdr.Frame{Kind: kind, ID: 1, Up: true, Name: "xpctest_count"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.sock.Write(wire); err != nil {
			t.Fatal(err)
		}
		select {
		case <-w.exited:
		case <-time.After(30 * time.Second):
			t.Fatalf("%v on the control socket: the worker is still running", kind)
		}
		if code := w.cmd.ProcessState.ExitCode(); code != workerErrExit {
			t.Fatalf("%v on the control socket: worker exit code %d, want %d", kind, code, workerErrExit)
		}
		if got := r.SharedState().Load(testCellServed); got != served {
			t.Fatalf("%v on the control socket was served", kind)
		}
		// The death is found by the next crossing; the one after it is served.
		if err := r.Call(ctx, hCount); !IsUserFault(err) {
			t.Fatalf("crossing into the exited worker: %v, want a contained fault", err)
		}
		if err := r.Call(ctx, hCount); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProcRingCrossingAllocFree: the boundary layer of a steady-state proc
// crossing — encode into the submit ring, await and validate completions —
// must perform zero heap allocations per chunk. This is the invariant the
// CI allocation gate pins (see BenchmarkProcRingCrossing).
func TestProcRingCrossingAllocFree(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	// Warm up: spawn the worker, register the rings, fault in the pools.
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xA5}, 1462)
	chunk := []*Submission{
		r.NewSubmission(&Call{Name: "tx", Up: true, Data: payload}),
		r.NewSubmission(&Call{Name: "tx", Up: true, Data: payload}),
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := pt.wireCross(r, ctx, chunk, nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("ring crossing allocates %.1f objects per chunk, want 0", avg)
	}
}

// BenchmarkProcRingCrossing measures the boundary layer of a steady-state
// two-call chunk crossing the descriptor rings. CI runs it with -benchmem
// and gates allocs/op at zero.
func BenchmarkProcRingCrossing(b *testing.B) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	pt, err := NewProcTransport(ProcConfig{Batch: 4})
	if err != nil {
		b.Fatal(err)
	}
	r.SetTransport(pt)
	defer r.SetTransport(nil)
	ctx := k.NewContext("bench")
	if err := r.Call(ctx, hSink); err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xA5}, 1462)
	chunk := []*Submission{
		r.NewSubmission(&Call{Name: "tx", Up: true, Data: payload}),
		r.NewSubmission(&Call{Name: "tx", Up: true, Data: payload}),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pt.wireCross(r, ctx, chunk, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProcMappedRingZeroCopy: payload bytes staged into a mapped ring cross
// as a 12-byte descriptor, and the worker — a separate address space —
// checksums the slot contents through its own mapping. A flush succeeding
// at all means the checksums matched: the memory really is shared.
func TestProcMappedRingZeroCopy(t *testing.T) {
	k, r, _ := newProcRig(t, 4)
	ctx := k.NewContext("test")
	ring, err := r.NewRing(8, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterPayloadRing(ctx, ring); err != nil {
		t.Fatal(err)
	}
	frame := bytes.Repeat([]byte{0xA5, 0x5A, 0x3C}, 100)
	p := r.AcquirePayload(frame)
	if !p.Slot.Valid() {
		t.Fatal("payload fell back to the copy path with a fresh mapped ring")
	}
	if err := r.Batch(ctx).CallPayload(hSink, p).Flush(); err != nil {
		t.Fatalf("slot crossing failed (checksum mismatch would mean the mapping is not shared): %v", err)
	}
	r.ReleasePayload(p)
	c := r.Counters()
	if c.DirectTransfers != 1 || c.BytesPayloadDirect != uint64(len(frame)) {
		t.Fatalf("DirectTransfers=%d BytesPayloadDirect=%d, want 1/%d", c.DirectTransfers, c.BytesPayloadDirect, len(frame))
	}
	if c.BytesPayloadCopied != 0 {
		t.Fatalf("BytesPayloadCopied = %d on the direct path", c.BytesPayloadCopied)
	}
}

// TestProcCrossChunkCarriesProbes: CrossChunk is the one way a call with no
// handler behind it crosses. Two such isolation probes, one by copy and one
// by slot, cross in one chunk: the worker proves it read both payloads — a
// checksum mismatch would fail the crossing — and serves no body.
func TestProcCrossChunkCarriesProbes(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	ring, err := r.NewRing(8, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterPayloadRing(ctx, ring); err != nil {
		t.Fatal(err)
	}
	p := r.AcquirePayload(bytes.Repeat([]byte{0x5A, 0xC3}, 150))
	if !p.Slot.Valid() {
		t.Fatal("payload fell back to the copy path with a fresh mapped ring")
	}
	defer r.ReleasePayload(p)
	chunk := []*Submission{
		r.NewSubmission(&Call{Name: "probe_copy", Up: true, Data: bytes.Repeat([]byte{0xA5}, 1462)}),
		r.NewSubmission(&Call{Name: "probe_slot", Up: true, Data: p.Data, Slot: p.Slot}),
	}
	before, served := r.Counters(), r.SharedState().Load(testCellServed)
	if err := pt.CrossChunk(r, ctx, chunk); err != nil {
		t.Fatalf("probe chunk: %v", err)
	}
	c := r.Counters()
	if c.RingCrossings != before.RingCrossings+1 || c.WorkerServedCalls != before.WorkerServedCalls {
		t.Fatalf("RingCrossings %d -> %d, WorkerServedCalls %d -> %d: want one ring crossing and no body served",
			before.RingCrossings, c.RingCrossings, before.WorkerServedCalls, c.WorkerServedCalls)
	}
	if r.SharedState().Load(testCellServed) != served || !c.WorkerAlive || c.WorkerDeaths != 0 {
		t.Fatalf("served cell moved or worker lost: %+v", c)
	}
}

// TestProcRejectsHeapRing: a ring the worker cannot see must be refused at
// registration, not fail silently per payload.
func TestProcRejectsHeapRing(t *testing.T) {
	k, r, _ := newProcRig(t, 4)
	ctx := k.NewContext("test")
	if err := r.RegisterPayloadRing(ctx, NewPayloadRing(8, 512)); err == nil {
		t.Fatal("heap-backed ring registered under a process-separated transport")
	}
	if r.PayloadRing() != nil {
		t.Fatal("failed registration left the ring installed")
	}
}

// TestProcExternalSigkillDetectedAsFault: a worker killed externally
// (kill -9) is detected on the next crossing, surfaces as a contained
// *UserFault caused by *WorkerDeath, fires the fault notifier, and the
// transport respawns a fresh worker for the crossing after that.
func TestProcExternalSigkillDetectedAsFault(t *testing.T) {
	k, r, pt := newProcRig(t, 1)
	ctx := k.NewContext("test")
	var events []FaultEvent
	r.SetFaultNotifier(func(ev FaultEvent) { events = append(events, ev) })
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatal(err)
	}
	oldPID := pt.WorkerPID()
	if !pt.KillWorker() {
		t.Fatal("no worker to kill")
	}
	err := r.Call(ctx, hSink)
	if !IsUserFault(err) {
		t.Fatalf("crossing into a SIGKILLed worker returned %v, want a contained UserFault", err)
	}
	var death *WorkerDeath
	if !errors.As(err, &death) || death.PID != oldPID {
		t.Fatalf("fault cause = %v, want WorkerDeath of pid %d", err, oldPID)
	}
	if len(events) != 1 || events[0].Call != "xpcbench_sink" {
		t.Fatalf("fault notifier events = %+v", events)
	}
	// The boundary heals: the next crossing runs on a respawned worker.
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatalf("crossing after respawn: %v", err)
	}
	if pid := pt.WorkerPID(); pid == 0 || pid == oldPID {
		t.Fatalf("worker pid = %d after respawn, want a fresh process (old %d)", pid, oldPID)
	}
	c := r.Counters()
	if c.WorkerRespawns < 1 || c.WorkerDeaths < 1 {
		t.Fatalf("WorkerRespawns=%d WorkerDeaths=%d, want >= 1 each", c.WorkerRespawns, c.WorkerDeaths)
	}
}

// TestProcInjectedFaultKillsWorker: an injected decaf-side panic is
// contained as usual — and under the process-separated transport the
// containment is physical: the worker process is SIGKILLed with the crash.
func TestProcInjectedFaultKillsWorker(t *testing.T) {
	k, r, pt := newProcRig(t, 1)
	ctx := k.NewContext("test")
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatal(err)
	}
	armed := true
	r.SetFaultInjector(func(call string) bool {
		if call == "xpcbench_sink" && armed {
			armed = false
			return true
		}
		return false
	})
	oldPID := pt.WorkerPID()
	err := r.Call(ctx, hSink)
	if !IsUserFault(err) {
		t.Fatalf("injected fault returned %v", err)
	}
	if c := r.Counters(); c.FaultsInjected != 1 || c.WorkerAlive {
		t.Fatalf("FaultsInjected=%d WorkerAlive=%v, want 1/false (the crash killed the process)", c.FaultsInjected, c.WorkerAlive)
	}
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatalf("crossing after fault: %v", err)
	}
	if pid := pt.WorkerPID(); pid == oldPID {
		t.Fatal("worker process survived a decaf-side fault")
	}
}

// TestProcDataAliasingRule: the UpcallHandlerData ownership rule must
// hold across the real boundary — the wire frame copies the payload at
// encode time, so mutating the caller's slice once the flush's completion
// has resolved (or even mid-window, a rule violation) cannot corrupt a
// frame already on the wire or wedge the protocol.
func TestProcDataAliasingRule(t *testing.T) {
	k, r, _ := newProcRig(t, 2)
	ctx := k.NewContext("test")
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b := r.Batch(ctx)
	b.CallData(hSink, data)
	// Rule violation: mutate between staging and flush. The checksum is
	// computed over the same bytes the frame copies, so the wire stays
	// self-consistent and the flush must still succeed.
	data[0] = 0xFF
	if err := b.Flush(); err != nil {
		t.Fatalf("flush after pre-flush mutation: %v", err)
	}
	// Legal mutation: the completion resolved with Flush (inline
	// transport), so the caller owns the slice again. The next crossing
	// must be completely unaffected.
	for i := range data {
		data[i] = 0xEE
	}
	b.CallData(hSink, []byte{9, 9, 9})
	if err := b.Flush(); err != nil {
		t.Fatalf("flush after post-completion mutation of the previous payload: %v", err)
	}
	if c := r.Counters(); c.CopiedTransfers != 2 || c.Faults != 0 {
		t.Fatalf("CopiedTransfers=%d Faults=%d, want 2/0", c.CopiedTransfers, c.Faults)
	}
}

func TestProcSubmitAfterCloseFails(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	pt, err := NewProcTransport(ProcConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r.SetTransport(pt)
	ctx := k.NewContext("test")
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatal(err)
	}
	if err := pt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pt.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	err = r.Call(ctx, hSink)
	if !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("submit after close = %v", err)
	}
	r.SetTransport(nil)
}

// TestProcNoMutexUnderContention: the tentpole invariant of the sharded
// lane design — once the worker epoch is warm, concurrent steady-state
// submissions acquire the control-plane mutex exactly zero times. Every
// t.mu acquisition goes through lockControl, so a zero ControlAcquires
// delta across the storm is proof the data plane is lock-free.
func TestProcNoMutexUnderContention(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	warm := k.NewContext("warm")
	if err := r.Call(warm, hSink); err != nil {
		t.Fatal(err)
	}
	base := pt.ControlAcquires()
	const submitters, rounds, calls = 8, 40, 4
	errs := make(chan error, submitters)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := k.NewContext(fmt.Sprintf("submitter-%d", w))
			for i := 0; i < rounds; i++ {
				b := r.Batch(ctx)
				for j := 0; j < calls; j++ {
					b.Call(hSink)
				}
				if err := b.Flush(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if delta := pt.ControlAcquires() - base; delta != 0 {
		t.Fatalf("steady state acquired the control mutex %d times under contention, want 0", delta)
	}
	c := r.Counters()
	if want := uint64(submitters * rounds); c.LaneAcquisitions < want {
		t.Fatalf("LaneAcquisitions = %d, want >= %d (one claim per crossing)", c.LaneAcquisitions, want)
	}
	if c.LaneActivePeak < 1 || c.LaneActivePeak > uint64(pt.Lanes())+1 {
		t.Fatalf("LaneActivePeak = %d, want within [1, %d]", c.LaneActivePeak, pt.Lanes()+1)
	}
}

// TestProcSpillLaneAbsorbsOversubscription: with more concurrent submitters
// than lanes, claims that find every regular lane busy must spill to the
// contended fallback lane and still complete correctly.
func TestProcSpillLaneAbsorbsOversubscription(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	pt, err := NewProcTransport(ProcConfig{Batch: 2, Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.SetTransport(pt)
	t.Cleanup(func() { r.SetTransport(nil) })
	warm := k.NewContext("warm")
	if err := r.Call(warm, hSink); err != nil {
		t.Fatal(err)
	}
	const submitters, rounds = 6, 30
	errs := make(chan error, submitters)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := k.NewContext(fmt.Sprintf("submitter-%d", w))
			for i := 0; i < rounds; i++ {
				if err := r.Call(ctx, hSink); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c := r.Counters(); c.LaneAcquisitions < uint64(submitters*rounds) {
		t.Fatalf("LaneAcquisitions = %d, want >= %d (one claim per crossing)", c.LaneAcquisitions, submitters*rounds)
	}
}

// TestProcSigkillMidContentionRecovers: SIGKILL the worker while K
// submitters are mid-storm. Every in-flight crossing must resolve — as a
// contained *UserFault (caused by *WorkerDeath) or an ErrCrossingAborted
// sibling, never a hang or a raw error — the epoch's lanes must be re-carved
// for a fresh worker, and post-storm crossings (including zero-copy slot
// resolution, which requires the re-registered ring geometry) must succeed.
// The kills come from inside the storm, at fixed rounds of one submitter, so
// they land mid-contention however fast the storm runs; the last one follows
// that submitter's final crossing, so the death may be left for the
// post-storm crossing to observe.
func TestProcSigkillMidContentionRecovers(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("warm")
	ring, err := r.NewRing(8, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterPayloadRing(ctx, ring); err != nil {
		t.Fatal(err)
	}
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatal(err)
	}
	const submitters, rounds = 6, 60
	unexpected := make(chan error, submitters*rounds)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := k.NewContext(fmt.Sprintf("storm-%d", w))
			<-start
			for i := 1; i <= rounds; i++ {
				err := r.Call(ctx, hSink)
				if err != nil && !IsUserFault(err) && !errors.Is(err, ErrCrossingAborted) {
					unexpected <- fmt.Errorf("submitter %d round %d: %w", w, i, err)
					return
				}
				if w == 0 && i%(rounds/3) == 0 {
					pt.KillWorker()
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(unexpected)
	for err := range unexpected {
		t.Fatal(err)
	}
	// The boundary heals: lanes re-carved, ring geometry replayed, zero-copy
	// crossings resolve on the fresh worker. Deaths are noticed on the next
	// wire operation, so if no storm crossing followed the last kill this one
	// is the first to see it: exactly one contained fault, then success.
	post := k.NewContext("post")
	p := r.AcquirePayload([]byte("post-storm payload"))
	if !p.Slot.Valid() {
		t.Fatal("payload not staged in the mapped ring")
	}
	cross := func() error {
		return r.Batch(post).CallPayload(hSink, p).Flush()
	}
	err = cross()
	var death *WorkerDeath
	if IsUserFault(err) && errors.As(err, &death) {
		err = cross()
	}
	if err != nil {
		t.Fatalf("zero-copy crossing after mid-contention SIGKILL: %v", err)
	}
	r.ReleasePayload(p)
	c := r.Counters()
	if c.WorkerDeaths < 1 || c.WorkerRespawns < 1 {
		t.Fatalf("WorkerDeaths=%d WorkerRespawns=%d, want >= 1 each", c.WorkerDeaths, c.WorkerRespawns)
	}
	if !c.WorkerAlive {
		t.Fatal("no live worker after recovery")
	}
}

// TestProcSupervisedRecoveryRespawn: the WorkerRespawner seam the recovery
// supervisor drives — respawn must yield a live worker and replay ring
// registration so post-restart crossings resolve slots again.
func TestProcRespawnReplaysRingRegistration(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	ring, err := r.NewRing(8, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterPayloadRing(ctx, ring); err != nil {
		t.Fatal(err)
	}
	pt.KillWorker()
	if err := pt.RespawnWorker(); err != nil {
		t.Fatal(err)
	}
	p := r.AcquirePayload([]byte("post-respawn payload"))
	if !p.Slot.Valid() {
		t.Fatal("payload not staged in the ring")
	}
	if err := r.Batch(ctx).CallPayload(hSink, p).Flush(); err != nil {
		t.Fatalf("slot crossing after respawn (ring geometry not replayed?): %v", err)
	}
	r.ReleasePayload(p)
}

// TestProcCountersSnapshotLockFree: a counters snapshot reads the worker
// gauges without the control mutex, so a metrics scrape neither counts as
// an acquisition nor waits behind a respawn that holds the mutex.
func TestProcCountersSnapshotLockFree(t *testing.T) {
	k, r, pt := newProcRig(t, 1)
	if err := r.Call(k.NewContext("test"), hSink); err != nil {
		t.Fatal(err)
	}
	base := pt.ControlAcquires()
	if c := r.Counters(); !c.WorkerAlive || c.WorkerRespawns != 0 {
		t.Fatalf("WorkerAlive=%v WorkerRespawns=%d, want true/0", c.WorkerAlive, c.WorkerRespawns)
	}
	if delta := pt.ControlAcquires() - base; delta != 0 {
		t.Fatalf("a counters snapshot acquired the control mutex %d times, want 0", delta)
	}
	pt.mu.Lock()
	done := make(chan Counters, 1)
	go func() { done <- r.Counters() }()
	select {
	case c := <-done:
		pt.mu.Unlock()
		if !c.WorkerAlive {
			t.Fatal("snapshot taken under a held control mutex lost the live worker")
		}
	case <-time.After(10 * time.Second):
		pt.mu.Unlock()
		t.Fatal("Counters blocked on the control mutex")
	}
}

// TestProcLayoutRefused: a worker that rejects its layout header says why
// instead of acknowledging. The crossing fails as a contained fault caused
// by a *LayoutRefusal carrying the worker's reason, no spawn is counted, and
// once the kernel side writes a sound header again the next crossing runs.
func TestProcLayoutRefused(t *testing.T) {
	k, r, pt := newProcRig(t, 1)
	ctx := k.NewContext("test")
	pt.lockControl()
	err := pt.ensureShmLocked()
	pt.lay.slotSize = 7
	pt.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	err = r.Call(ctx, hSink)
	var refusal *LayoutRefusal
	if !IsUserFault(err) || !errors.As(err, &refusal) || !strings.Contains(refusal.Reason, "slot size 7") {
		t.Fatalf("crossing over a refused layout: %v, want a contained *LayoutRefusal naming the slot size", err)
	}
	if c := r.Counters(); c.WorkerRespawns != 0 || c.WorkerDeaths != 1 || c.WorkerAlive {
		t.Fatalf("WorkerRespawns=%d WorkerDeaths=%d WorkerAlive=%v, want 0/1/false", c.WorkerRespawns, c.WorkerDeaths, c.WorkerAlive)
	}
	pt.lockControl()
	pt.lay.slotSize = descSlotBytes
	pt.mu.Unlock()
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatalf("crossing after the layout was repaired: %v", err)
	}
}

// TestProcScribbledHeaderContained: the layout header lives in memory the
// worker can write, so a lying worker can rewrite the payload-ring geometry
// there. The kernel side never reads it back: a slot call resolved against
// an out-of-range geometry fails as a protocol error and retires the epoch,
// and the next crossing runs on a fresh worker whose header was rewritten
// from the kernel side's own values, serving the same slot call with a
// matching checksum.
func TestProcScribbledHeaderContained(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	ring, err := r.NewRing(8, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterPayloadRing(ctx, ring); err != nil {
		t.Fatal(err)
	}
	// The staged payload sits in slot 1: any slot but the first lies past
	// the payload area under the scribbled 2 GiB slot size.
	first := r.AcquirePayload([]byte("slot zero"))
	p := r.AcquirePayload(bytes.Repeat([]byte{0x5A, 0xC3, 0x3C}, 100))
	r.ReleasePayload(first)
	defer r.ReleasePayload(p)
	if !p.Slot.Valid() || p.Slot.Index == 0 {
		t.Fatalf("payload staged in slot %d (direct %v), want a ring slot past the first", p.Slot.Index, p.Slot.Valid())
	}
	cross := func() error { return r.Batch(ctx).CallPayload(hSink, p).Flush() }
	if err := cross(); err != nil {
		t.Fatal(err)
	}
	pid, deaths, want := pt.WorkerPID(), r.Counters().WorkerDeaths, pt.hdr.ringGeom.Load()
	pt.hdr.ringGeom.Store(1<<31<<32 | 1<<31)
	err = cross()
	var death *WorkerDeath
	if !IsUserFault(err) || errors.As(err, &death) || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("slot call under a scribbled geometry: %v, want a contained protocol error", err)
	}
	if c := r.Counters(); c.WorkerDeaths != deaths+1 || c.WorkerAlive {
		t.Fatalf("WorkerDeaths %d -> %d, WorkerAlive=%v: the suspect epoch was not retired", deaths, c.WorkerDeaths, c.WorkerAlive)
	}
	if err := cross(); err != nil {
		t.Fatalf("slot call on the next epoch: %v", err)
	}
	if got := pt.WorkerPID(); got == pid || got == 0 {
		t.Fatalf("worker pid %d after the retirement, want a fresh process (old %d)", got, pid)
	}
	if got := pt.hdr.ringGeom.Load(); got != want {
		t.Fatalf("header ring geometry %#x after the respawn, want the kernel side's %#x", got, want)
	}
}

// TestProcHandlerTableDigestRefused: calls cross as table indices, so a
// worker whose handler table differs from the kernel side's must not serve
// one. The kernel side re-registers a handler with its Down flag flipped,
// so the digest it writes into the next header is one the worker's image
// cannot match. The respawn fails as a *LayoutRefusal naming the digest, a
// crossing meanwhile is contained without claiming a lane, and once the
// flag is restored the next epoch, on a rewritten header, serves.
func TestProcHandlerTableDigestRefused(t *testing.T) {
	k, r, pt := newProcRig(t, 1)
	ctx := k.NewContext("test")
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatal(err)
	}
	orig := *registry.Lookup("xpctest_store")
	flipped := orig
	flipped.Down = !orig.Down
	registry.Register("xpctest_store", flipped)
	t.Cleanup(func() { registry.Register("xpctest_store", orig) })

	pid, before := pt.WorkerPID(), r.Counters()
	var refusal *LayoutRefusal
	if err := pt.RespawnWorker(); !errors.As(err, &refusal) || !strings.Contains(refusal.Reason, "handler table digest") {
		t.Fatalf("respawn under another handler table: %v, want a *LayoutRefusal naming the digest", err)
	}
	err := r.Call(ctx, hSink)
	if !IsUserFault(err) || !errors.As(err, &refusal) || !strings.Contains(refusal.Reason, "handler table digest") {
		t.Fatalf("crossing under another handler table: %v, want a contained *LayoutRefusal naming the digest", err)
	}
	c := r.Counters()
	if c.WorkerAlive || pt.WorkerPID() != 0 || c.WorkerRespawns != before.WorkerRespawns || c.WorkerDeaths != before.WorkerDeaths+3 {
		t.Fatalf("WorkerAlive=%v pid %d WorkerRespawns %d -> %d WorkerDeaths %d -> %d, want no live worker, no spawn counted and three epochs retired",
			c.WorkerAlive, pt.WorkerPID(), before.WorkerRespawns, c.WorkerRespawns, before.WorkerDeaths, c.WorkerDeaths)
	}
	if c.RingCrossings != before.RingCrossings || c.LaneAcquisitions != before.LaneAcquisitions {
		t.Fatalf("RingCrossings %d -> %d, LaneAcquisitions %d -> %d: a call crossed to a refusing worker",
			before.RingCrossings, c.RingCrossings, before.LaneAcquisitions, c.LaneAcquisitions)
	}

	registry.Register("xpctest_store", orig)
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatalf("crossing once the tables agree again: %v", err)
	}
	if got := pt.WorkerPID(); got == 0 || got == pid {
		t.Fatalf("worker pid %d after the refusals, want a fresh process (old %d)", got, pid)
	}
	if got, want := pt.hdr.digest.Load(), registry.Digest(); got != want {
		t.Fatalf("header digest %#x on the serving epoch, want the table's %#x", got, want)
	}

	// The downcall table is covered too: a worker that declares one
	// downcall more than this image refuses the epoch the same way.
	t.Setenv(workerExtraDowncallEnv, "1")
	if err := pt.RespawnWorker(); !errors.As(err, &refusal) || !strings.Contains(refusal.Reason, "handler table digest") {
		t.Fatalf("respawn under another downcall table: %v, want a *LayoutRefusal naming the digest", err)
	}
	os.Unsetenv(workerExtraDowncallEnv)
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatalf("crossing once the downcall tables agree again: %v", err)
	}
}
