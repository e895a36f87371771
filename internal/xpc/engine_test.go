//go:build unix

package xpc

import (
	"errors"
	"os"
	"testing"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
)

// xpctest_exit ends the process that runs it. Only the proc transport's
// worker may dispatch it: inline, it would end the test binary.
var hExit *registry.Handler

func init() {
	hExit = registry.Register("xpctest_exit", registry.Handler{Fn: func(*registry.Ctx) error {
		os.Exit(workerErrExit)
		return nil
	}})
}

// procSubs builds one chunk of handler calls with the given payloads.
func procSubs(r *Runtime, names []string, data [][]byte) []*Submission {
	subs := make([]*Submission, len(names))
	for i, name := range names {
		subs[i] = r.NewSubmission(handlerCall(name, data[i]))
	}
	return subs
}

// TestProcVirtualNumbersPinned pins the virtual accounting of one mixed
// chunk under proc: a free handler, a Down handler whose body calls down
// twice, and another free handler. The figures were taken from the engine
// that executed a chunk only once its last completion had landed; the
// engine that resolves each call as its completion lands must reproduce
// them exactly. The downcalls' own cost reaches the caller's elapsed time
// but neither the calls' marks nor the stall.
func TestProcVirtualNumbersPinned(t *testing.T) {
	k, r, _ := newProcRig(t, 4)
	ctx := k.NewContext("golden")
	r.BindDowncall(dcReadReg, func(kc *kernel.Context, arg uint64) (uint64, error) {
		kc.Charge(3 * time.Microsecond)
		kc.Sleep(2 * time.Microsecond)
		return arg + 1, nil
	})
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatal(err)
	}
	r.ResetCounters()
	subs := procSubs(r, []string{"xpcbench_sink", "xpctest_down_many", "xpcbench_sink"},
		[][]byte{make([]byte, 100), {2, 0x5a}, make([]byte, 60)})
	elapsed0, busy0 := ctx.Elapsed(), ctx.Busy()
	if err := r.Transport().Submit(r, ctx, subs); err != nil {
		t.Fatal(err)
	}
	for i, want := range []time.Duration{31000416, 224, 256} {
		c := subs[i].Completion
		c.wait()
		if got := c.crossCost; got != want {
			t.Errorf("call %d crossCost = %d, want %d", i, got, want)
		}
	}
	// The caller slept both downcall crossings on top of the chunk's cost.
	if got, want := ctx.Elapsed()-elapsed0, time.Duration(81010896); got != want {
		t.Errorf("caller elapsed = %d, want %d", got, want)
	}
	if got, want := ctx.Busy()-busy0, time.Duration(696); got != want {
		t.Errorf("caller busy = %d, want %d", got, want)
	}
	c := r.Counters()
	if got := r.SharedState().Load(testCellDown); got != 3 {
		t.Errorf("down cell = %d, want 3 (1 + 2)", got)
	}
	type pin struct {
		name      string
		got, want uint64
	}
	for _, p := range []pin{
		{"Upcalls", c.Upcalls, 1},
		{"Downcalls", c.Downcalls, 2},
		{"Batches", c.Batches, 1},
		{"BatchedCalls", c.BatchedCalls, 3},
		{"Stall", uint64(c.Stall), 31000200},
		{"CrossTime", uint64(c.CrossTime), 81010896},
		{"BytesKernelUser", c.BytesKernelUser, 174},
		{"BytesCJava", c.BytesCJava, 174},
		{"BytesPayloadCopied", c.BytesPayloadCopied, 174},
		{"WorkerServedCalls", c.WorkerServedCalls, 3},
		{"WorkerDowncalls", c.WorkerDowncalls, 2},
	} {
		if p.got != p.want {
			t.Errorf("%s = %d, want %d", p.name, p.got, p.want)
		}
	}
}

// TestProcWorkerDiesMidChunk: the worker serves the first call of a
// published chunk and dies in the second. The call it served resolves as
// served; the call it died in is the contained fault, reported once to the
// notifier; the call after it aborts; and a fresh worker serves the next
// crossing.
func TestProcWorkerDiesMidChunk(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	var events []FaultEvent
	r.SetFaultNotifier(func(ev FaultEvent) { events = append(events, ev) })
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatal(err)
	}
	oldPID := pt.WorkerPID()
	served := r.Counters().WorkerServedCalls
	subs := procSubs(r, []string{"xpcbench_sink", "xpctest_exit", "xpcbench_sink"}, make([][]byte, 3))
	if err := r.Transport().Submit(r, ctx, subs); !IsUserFault(err) {
		t.Fatalf("Submit = %v, want a contained UserFault", err)
	}
	if err := subs[0].Completion.Wait(nil); err != nil {
		t.Fatalf("call 0 (served before the death) = %v, want nil", err)
	}
	var death *WorkerDeath
	if err := subs[1].Completion.Wait(nil); !IsUserFault(err) || !errors.As(err, &death) || death.PID != oldPID {
		t.Fatalf("call 1 = %v, want a UserFault wrapping the WorkerDeath of pid %d", err, oldPID)
	}
	if !subs[1].Completion.fault {
		t.Fatal("call 1 did not resolve as a fault")
	}
	if err := subs[2].Completion.Wait(nil); !errors.Is(err, ErrCrossingAborted) {
		t.Fatalf("call 2 = %v, want ErrCrossingAborted", err)
	}
	if len(events) != 1 || events[0].Call != "xpctest_exit" {
		t.Fatalf("fault notifier events = %+v, want one for xpctest_exit", events)
	}
	c := r.Counters()
	if got := c.WorkerServedCalls - served; got != 1 {
		t.Fatalf("WorkerServedCalls advanced by %d, want 1", got)
	}
	if c.InFlight != 0 {
		t.Fatalf("InFlight = %d after the chunk resolved", c.InFlight)
	}
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatalf("crossing after the death: %v", err)
	}
	if pid := pt.WorkerPID(); pid == 0 || pid == oldPID {
		t.Fatalf("worker pid = %d, want a fresh process (old %d)", pid, oldPID)
	}
}

// TestProcKilledWorkerSeenExited: KillWorker returns only once the process
// has been reaped, so the holder of the next crossing finds the worker's
// exit flag set. The fault's cause is that exit observation — seen within
// one spin-yield quantum — rather than the EOF or EPIPE of its doorbell,
// which only a spin budget and a park would reach.
func TestProcKilledWorkerSeenExited(t *testing.T) {
	k, r, pt := newProcRig(t, 1)
	ctx := k.NewContext("test")
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatal(err)
	}
	oldPID := pt.WorkerPID()
	if !pt.KillWorker() {
		t.Fatal("no worker to kill")
	}
	start := time.Now()
	err := r.Call(ctx, hSink)
	t.Logf("crossing into the killed worker failed in %v", time.Since(start))
	var death *WorkerDeath
	if !IsUserFault(err) || !errors.As(err, &death) || death.PID != oldPID {
		t.Fatalf("crossing into a killed worker = %v, want a UserFault wrapping the WorkerDeath of pid %d", err, oldPID)
	}
	if !errors.Is(err, errWorkerExited) {
		t.Fatalf("death cause = %v, want the exit observation (%v)", death.Err, errWorkerExited)
	}
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatalf("crossing after the death: %v", err)
	}
}
