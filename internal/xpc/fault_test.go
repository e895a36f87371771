package xpc

import (
	"errors"
	"sync"
	"testing"

	"decafdrivers/internal/kernel"
)

// TestFaultInjectorThrowsInsideContainment: an armed injector fails the
// targeted call with a *UserFault whose cause is the injected marker, the
// injection is counted, and other calls are untouched.
func TestFaultInjectorThrowsInsideContainment(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	r.SetFaultInjector(func(call string) bool { return call == "target" })

	ctx := k.NewContext("t")
	ran := false
	err := r.Upcall(ctx, "target", func(uctx *kernel.Context) error {
		ran = true
		return nil
	})
	if ran {
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
	if err := r.Upcall(ctx, "other", func(uctx *kernel.Context) error { return nil }); err != nil {
		t.Fatalf("untargeted call failed: %v", err)
	}
	c := r.Counters()
	if c.Faults != 1 || c.FaultsInjected != 1 {
		t.Fatalf("Faults=%d FaultsInjected=%d, want 1/1", c.Faults, c.FaultsInjected)
	}
	if c.FaultsByCall["target"] != 1 || c.FaultsByCall["other"] != 0 {
		t.Fatalf("FaultsByCall = %v", c.FaultsByCall)
	}

	// Disarming restores the call.
	r.SetFaultInjector(nil)
	if err := r.Upcall(ctx, "target", func(uctx *kernel.Context) error { return nil }); err != nil {
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
			err := r.Upcall(ctx, "boom", func(uctx *kernel.Context) error {
				panic("decaf crash")
			})
			if !IsUserFault(err) {
				t.Fatalf("err = %v, want UserFault", err)
			}

			mu.Lock()
			defer mu.Unlock()
			if len(events) != 1 {
				t.Fatalf("notifier fired %d times, want 1", len(events))
			}
			ev := events[0]
			if ev.Call != "boom" || !ev.Up || !IsUserFault(ev.Err) {
				t.Fatalf("event = %+v", ev)
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
				if !p.Direct() {
					t.Fatal("payload fell back to copy; ring should have slots")
				}
			}
			if ring.InUse() != int64(len(frames)) {
				t.Fatalf("InUse = %d before flush", ring.InUse())
			}

			b := r.Batch(ctx)
			for i := range frames {
				b.UpcallHandlerPayload("xpcbench_sink", fl.Payloads[i])
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
	if p.Direct() {
		t.Fatal("payload rode a detached ring")
	}
	fresh := NewPayloadRing(old.Slots(), old.SlotSize())
	if err := r.RegisterPayloadRing(ctx, fresh); err != nil {
		t.Fatalf("re-register after detach: %v", err)
	}
	if p := r.AcquirePayload([]byte{4, 5}); !p.Direct() {
		t.Fatal("payload did not ride the fresh ring")
	}
}
