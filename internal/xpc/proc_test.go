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
	ran := false
	if err := r.Upcall(ctx, "probe", func(uctx *kernel.Context) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("upcall body did not run")
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
	// Control traffic (descriptor-ring registration) still frames over the
	// socketpair.
	if c.WireBytesOut == 0 || c.WireBytesIn == 0 {
		t.Fatalf("wire bytes out/in = %d/%d, want both > 0", c.WireBytesOut, c.WireBytesIn)
	}
	if c.DescRingEntries == 0 || c.DescRingPeak == 0 {
		t.Fatalf("DescRingEntries=%d DescRingPeak=%d, want both > 0 after a ring crossing", c.DescRingEntries, c.DescRingPeak)
	}
	if !c.WorkerAlive {
		t.Fatal("worker not alive after a crossing")
	}
}

func TestProcBatchCoalescesIntoOneWireCrossing(t *testing.T) {
	const n = 4
	k, r, _ := newProcRig(t, n)
	ctx := k.NewContext("test")
	b := r.Batch(ctx)
	for i := 0; i < n; i++ {
		b.Upcall("tx", func(uctx *kernel.Context) error { return nil })
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
	err := r.Upcall(ctx, "configure", func(uctx *kernel.Context) error {
		return r.Downcall(uctx, "register_netdev", func(kctx *kernel.Context) error {
			inner = true
			return nil
		})
	})
	if err != nil || !inner {
		t.Fatalf("nested downcall: err=%v inner=%v", err, inner)
	}
	c := r.Counters()
	if c.Upcalls != 1 || c.Downcalls != 1 || c.RingCrossings != 2 {
		t.Fatalf("Upcalls=%d Downcalls=%d RingCrossings=%d", c.Upcalls, c.Downcalls, c.RingCrossings)
	}
}

// TestProcOversizedPayloadRejectedCleanly: a copy-path payload a descriptor
// slot cannot hold — or a name the frame cannot — is refused at admission,
// before any lane is claimed: an ordinary error, not a fault; nothing
// crossed, the worker is the same process and was not respawned; and the
// next crossing rides the rings as if nothing had happened.
func TestProcOversizedPayloadRejectedCleanly(t *testing.T) {
	k, r, pt := newProcRig(t, 2)
	ctx := k.NewContext("test")
	if err := r.Upcall(ctx, "warmup", func(uctx *kernel.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	pid, before, served := pt.WorkerPID(), r.Counters(), r.SharedState().Load(testCellServed)
	for _, tc := range []struct {
		what string
		call func(b *Batch) *Batch
	}{
		{"payload one byte over a slot", func(b *Batch) *Batch {
			return b.UpcallHandlerData("xpctest_count", bytes.Repeat([]byte{0x42}, descSlotBytes+1))
		}},
		{"payload over the frame codec's limit", func(b *Batch) *Batch {
			return b.UpcallHandlerData("xpctest_count", make([]byte, 1<<20+1))
		}},
		{"name over the frame limit", func(b *Batch) *Batch {
			return b.Upcall(strings.Repeat("n", 256), func(uctx *kernel.Context) error {
				t.Error("the body of a refused call ran")
				return nil
			})
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
	if err := r.Upcall(ctx, "small", func(uctx *kernel.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.RingCrossings != before.RingCrossings+1 {
		t.Fatalf("RingCrossings moved by %d after the refusals, want 1", c.RingCrossings-before.RingCrossings)
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
		if err := r.UpcallHandler(ctx, "xpctest_count"); err != nil {
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
		if err := r.UpcallHandler(ctx, "xpctest_count"); !IsUserFault(err) {
			t.Fatalf("crossing into the exited worker: %v, want a contained fault", err)
		}
		if err := r.UpcallHandler(ctx, "xpctest_count"); err != nil {
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
	if err := r.Upcall(ctx, "warmup", func(uctx *kernel.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xA5}, 1462)
	chunk := []*Submission{
		r.NewSubmission(&Call{Name: "tx", Up: true, Data: payload}),
		r.NewSubmission(&Call{Name: "tx", Up: true, Data: payload}),
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := pt.wireCross(r, ctx, chunk); err != nil {
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
	if err := r.Upcall(ctx, "warmup", func(uctx *kernel.Context) error { return nil }); err != nil {
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
		if err := pt.wireCross(r, ctx, chunk); err != nil {
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
	if !p.Direct() {
		t.Fatal("payload fell back to the copy path with a fresh mapped ring")
	}
	if err := r.Batch(ctx).UpcallHandlerPayload("xpcbench_sink", p).Flush(); err != nil {
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
	if err := r.Upcall(ctx, "warmup", func(uctx *kernel.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	oldPID := pt.WorkerPID()
	if !pt.KillWorker() {
		t.Fatal("no worker to kill")
	}
	err := r.Upcall(ctx, "tx", func(uctx *kernel.Context) error { return nil })
	if !IsUserFault(err) {
		t.Fatalf("crossing into a SIGKILLed worker returned %v, want a contained UserFault", err)
	}
	var death *WorkerDeath
	if !errors.As(err, &death) || death.PID != oldPID {
		t.Fatalf("fault cause = %v, want WorkerDeath of pid %d", err, oldPID)
	}
	if len(events) != 1 || events[0].Call != "tx" {
		t.Fatalf("fault notifier events = %+v", events)
	}
	// The boundary heals: the next crossing runs on a respawned worker.
	if err := r.Upcall(ctx, "tx", func(uctx *kernel.Context) error { return nil }); err != nil {
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
	armed := true
	r.SetFaultInjector(func(call string) bool {
		if call == "tx" && armed {
			armed = false
			return true
		}
		return false
	})
	if err := r.Upcall(ctx, "warmup", func(uctx *kernel.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	oldPID := pt.WorkerPID()
	err := r.Upcall(ctx, "tx", func(uctx *kernel.Context) error { return nil })
	if !IsUserFault(err) {
		t.Fatalf("injected fault returned %v", err)
	}
	if c := r.Counters(); c.FaultsInjected != 1 || c.WorkerAlive {
		t.Fatalf("FaultsInjected=%d WorkerAlive=%v, want 1/false (the crash killed the process)", c.FaultsInjected, c.WorkerAlive)
	}
	if err := r.Upcall(ctx, "tx", func(uctx *kernel.Context) error { return nil }); err != nil {
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
	b.UpcallHandlerData("xpcbench_sink", data)
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
	b.UpcallHandlerData("xpcbench_sink", []byte{9, 9, 9})
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
	if err := r.Upcall(ctx, "probe", func(uctx *kernel.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := pt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pt.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	err = r.Upcall(ctx, "probe", func(uctx *kernel.Context) error { return nil })
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
	if err := r.Upcall(warm, "warmup", func(uctx *kernel.Context) error { return nil }); err != nil {
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
					b.Upcall("tx", func(uctx *kernel.Context) error { return nil })
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
	if err := r.Upcall(warm, "warmup", func(uctx *kernel.Context) error { return nil }); err != nil {
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
				if err := r.Upcall(ctx, "tx", func(uctx *kernel.Context) error { return nil }); err != nil {
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
	if err := r.Upcall(ctx, "warmup", func(uctx *kernel.Context) error { return nil }); err != nil {
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
				err := r.Upcall(ctx, "tx", func(uctx *kernel.Context) error { return nil })
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
	if !p.Direct() {
		t.Fatal("payload not staged in the mapped ring")
	}
	cross := func() error {
		return r.Batch(post).UpcallHandlerPayload("xpcbench_sink", p).Flush()
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
	if !p.Direct() {
		t.Fatal("payload not staged in the ring")
	}
	if err := r.Batch(ctx).UpcallHandlerPayload("xpcbench_sink", p).Flush(); err != nil {
		t.Fatalf("slot crossing after respawn (ring geometry not replayed?): %v", err)
	}
	r.ReleasePayload(p)
}
