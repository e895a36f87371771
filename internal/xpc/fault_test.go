package xpc

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestFaultInjectorThrowsInsideContainment: an armed injector fails the
// targeted call with a *UserFault whose cause is the injected marker, the
// injection is counted, and other calls are untouched.
func TestFaultInjectorThrowsInsideContainment(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetFaultInjector(func(call string) bool { return call == "xpctest_count" })

	ctx := k.NewContext("t")
	served := r.SharedState().Load(testCellServed)
	err := r.Call(ctx, hCount)
	if r.SharedState().Load(testCellServed) != served {
		t.Fatal("call body ran despite injected fault")
	}
	var uf *UserFault
	if !errors.As(err, &uf) {
		t.Fatalf("err = %v, want UserFault", err)
	}
	if _, ok := uf.Cause.(*InjectedFault); !ok {
		t.Fatalf("fault cause = %T, want *InjectedFault", uf.Cause)
	}
	if !IsUserFault(err) {
		t.Fatal("IsUserFault = false for an injected fault")
	}
	if err := r.Call(ctx, hSink); err != nil {
		t.Fatalf("untargeted call failed: %v", err)
	}
	c := r.Counters()
	if c.Faults != 1 || c.FaultsInjected != 1 {
		t.Fatalf("Faults=%d FaultsInjected=%d, want 1/1", c.Faults, c.FaultsInjected)
	}
	if c.FaultsByCall["xpctest_count"] != 1 || c.FaultsByCall["xpcbench_sink"] != 0 {
		t.Fatalf("FaultsByCall = %v", c.FaultsByCall)
	}

	// Disarming restores the call.
	r.SetFaultInjector(nil)
	if err := r.Call(ctx, hCount); err != nil {
		t.Fatalf("call failed after disarm: %v", err)
	}
}

// faultRigs are the transports the fault tests run under: the in-process
// ones, and the worker process where the platform has one.
var faultRigs = []struct {
	name      string
	transport func(t *testing.T) Transport
}{
	{"sync", func(*testing.T) Transport { return BatchTransport{N: 1} }},
	{"batch", func(*testing.T) Transport { return BatchTransport{N: 4} }},
	{"proc", func(t *testing.T) Transport {
		pt, err := NewProcTransport(ProcConfig{Batch: 4})
		if err != nil {
			t.Skip(err)
		}
		return pt
	}},
}

// TestFaultNotifierObservesEveryContainedFault: the notifier fires once per
// fault with the call name and error, under every transport, and sees the
// completion already settled.
func TestFaultNotifierObservesEveryContainedFault(t *testing.T) {
	for _, tc := range faultRigs {
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernel()
			r := newDecafRuntime(k)
			r.SetTransport(tc.transport(t))
			defer r.SetTransport(nil)

			var mu sync.Mutex
			var events []FaultEvent
			r.SetFaultNotifier(func(ev FaultEvent) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			})

			ctx := k.NewContext("t")
			err := r.Call(ctx, hPanic)
			if !IsUserFault(err) {
				t.Fatalf("err = %v, want UserFault", err)
			}

			mu.Lock()
			defer mu.Unlock()
			if len(events) != 1 {
				t.Fatalf("notifier fired %d times, want 1", len(events))
			}
			ev := events[0]
			if ev.Call != "xpctest_panic" || !ev.Up || !IsUserFault(ev.Err) {
				t.Fatalf("event = %+v", ev)
			}
		})
	}
}

// TestSubmitRefusesHandlerlessCall: a call with no registered handler
// behind it is an isolation probe, which only ProcTransport.CrossChunk
// carries. Submitting one between two handler calls fails the whole submit
// before any body runs, under every transport: each submission resolves
// with an error naming the probe, none of them a fault, the fault notifier
// stays quiet, and the worker is the same process afterwards.
func TestSubmitRefusesHandlerlessCall(t *testing.T) {
	for _, tc := range faultRigs {
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernel()
			r := newDecafRuntime(k)
			tr := tc.transport(t)
			r.SetTransport(tr)
			defer r.SetTransport(nil)
			ctx := k.NewContext("t")
			if err := r.Call(ctx, hSink); err != nil {
				t.Fatal(err)
			}
			// Only the unix ProcTransport has a worker to ask.
			pt, isProc := tr.(interface{ WorkerPID() int })
			pid := 0
			if isProc {
				pid = pt.WorkerPID()
			}
			faults := 0
			r.SetFaultNotifier(func(FaultEvent) { faults++ })
			served, ran := r.SharedState().Load(testCellServed), testParentRan.Load()

			subs := handlerSubs(r, "xpctest_count", "xpctest_count")
			probe := r.NewSubmission(&Call{Name: "probe", Up: true, Data: []byte{1}})
			subs = []*Submission{subs[0], probe, subs[1]}
			err := tr.Submit(r, ctx, subs)
			if err == nil || !strings.Contains(err.Error(), `"probe"`) || IsUserFault(err) {
				t.Fatalf("Submit = %v, want a non-fault error naming the probe", err)
			}
			for i, sub := range subs {
				if cerr := sub.Completion.Wait(nil); cerr == nil || sub.Completion.fault || IsUserFault(cerr) {
					t.Fatalf("submission %d resolved with %v (fault %v), want a non-fault error", i, cerr, sub.Completion.fault)
				}
			}
			if r.SharedState().Load(testCellServed) != served || testParentRan.Load() != ran {
				t.Fatal("a body ran in a submit that held a probe")
			}
			if faults != 0 {
				t.Fatalf("fault notifier fired %d times", faults)
			}
			if c := r.Counters(); c.InFlight != 0 || c.Faults != 0 {
				t.Fatalf("InFlight = %d, Faults = %d, want 0 and 0", c.InFlight, c.Faults)
			}
			if isProc && pt.WorkerPID() != pid {
				t.Fatalf("worker pid %d -> %d: a refused submit touched the worker", pid, pt.WorkerPID())
			}
		})
	}
}

// TestRingSlotsReleaseAfterContainedFault is the slot-leak audit: a flight
// staged into the payload ring whose flush faults mid-crossing must still
// return ring occupancy to zero once the pipeline's drop arm runs, under
// every transport. A fault mid-flight must not leak a slot.
func TestRingSlotsReleaseAfterContainedFault(t *testing.T) {
	for _, tc := range faultRigs {
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernel()
			r := newDecafRuntime(k)
			r.SetTransport(tc.transport(t))
			defer r.SetTransport(nil)
			ctx := k.NewContext("t")
			ring, err := r.NewRing(8, 256)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.RegisterPayloadRing(ctx, ring); err != nil {
				t.Fatal(err)
			}

			// Fault the third call of the flush: the abort semantics kill the
			// rest of the crossing, and every slot must still come back.
			nth := 0
			r.SetFaultInjector(func(call string) bool {
				if call != "xpcbench_sink" {
					return false
				}
				nth++
				return nth == 3
			})

			frames := [][]byte{{1}, {2}, {3}, {4}, {5}, {6}}
			var pool FlightPool[[]byte]
			fl := pool.Get()
			for _, b := range frames {
				fl.Stage(r, b, b)
			}
			for _, p := range fl.Payloads {
				if !p.Slot.Valid() {
					t.Fatal("payload fell back to copy; ring should have slots")
				}
			}
			if ring.InUse() != int64(len(frames)) {
				t.Fatalf("InUse = %d before flush", ring.InUse())
			}

			b := r.Batch(ctx)
			for i := range frames {
				b.CallPayload(hSink, fl.Payloads[i])
			}
			var pipe FlushPipeline[Flight[[]byte]]
			pipe.Push(b.FlushAsync(), fl)

			err = pipe.Drain(ctx,
				func(f Flight[[]byte]) { pool.Release(r, f) },
				func(f Flight[[]byte], _ error) { pool.Release(r, f) })
			if !IsUserFault(err) {
				t.Fatalf("Drain error = %v, want the contained fault", err)
			}
			if got := ring.InUse(); got != 0 {
				t.Fatalf("ring occupancy after faulted flush = %d, want 0 (leaked slots)", got)
			}
			if c := r.Counters(); c.RingInUse != 0 {
				t.Fatalf("Counters.RingInUse = %d, want 0", c.RingInUse)
			}
		})
	}
}

// TestUnregisterPayloadRingSwapsCleanly: detach returns the old ring, the
// copy fallback takes over, and a fresh ring registers without error — the
// recovery-time ring swap.
func TestUnregisterPayloadRingSwapsCleanly(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	old := NewPayloadRing(4, 128)
	if err := r.RegisterPayloadRing(ctx, old); err != nil {
		t.Fatal(err)
	}
	if got := r.UnregisterPayloadRing(); got != old {
		t.Fatalf("UnregisterPayloadRing = %p, want %p", got, old)
	}
	if r.PayloadRing() != nil {
		t.Fatal("ring still registered after detach")
	}
	// Payloads degrade to the copy path, never block or drop.
	p := r.AcquirePayload([]byte{1, 2, 3})
	if p.Slot.Valid() {
		t.Fatal("payload rode a detached ring")
	}
	fresh := NewPayloadRing(old.Slots(), old.SlotSize())
	if err := r.RegisterPayloadRing(ctx, fresh); err != nil {
		t.Fatalf("re-register after detach: %v", err)
	}
	if p := r.AcquirePayload([]byte{4, 5}); !p.Slot.Valid() {
		t.Fatal("payload did not ride the fresh ring")
	}
}
