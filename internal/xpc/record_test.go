//go:build unix

package xpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decafdrivers/internal/kernel"
)

// flushRig is one transport under the call-record tests.
type flushRig struct {
	name string
	new  func(t *testing.T) (*kernel.Kernel, *Runtime)
}

var flushRigs = []flushRig{
	{"sync", func(t *testing.T) (*kernel.Kernel, *Runtime) {
		k := newTestKernel()
		return k, newDecafRuntime(k)
	}},
	{"batch", func(t *testing.T) (*kernel.Kernel, *Runtime) {
		k := newTestKernel()
		r := newDecafRuntime(k)
		r.SetTransport(BatchTransport{N: 4})
		return k, r
	}},
	{"async", func(t *testing.T) (*kernel.Kernel, *Runtime) {
		k := newTestKernel()
		r, _ := newAsyncRuntime(k, AsyncConfig{Batch: 4, Depth: 16})
		t.Cleanup(func() { r.SetTransport(nil) })
		return k, r
	}},
	{"proc", func(t *testing.T) (*kernel.Kernel, *Runtime) {
		k, r, _ := newProcRig(t, 4)
		return k, r
	}},
}

// TestFlushAllocFree pins the whole handler-call path at zero heap objects:
// N × UpcallHandlerData → Flush() over a real worker, by copy and by slot,
// and over the in-process batch transport; the same batch through FlushAsync
// + Wait may allocate the aggregate handle it returns. The builder is made
// once and reused, as a long-lived caller would: Runtime.Batch itself is one
// object (see its comment), which the blocking sugar — a builder on its own
// stack — does not pay.
func TestFlushAllocFree(t *testing.T) {
	payload := make([]byte, 1462)
	payload[0] = 7
	for _, tc := range []struct {
		name   string
		n      int
		proc   bool
		bySlot bool
	}{
		{"proc/N=1", 1, true, false},
		{"proc/N=32", 32, true, false},
		{"proc/slot_N=32", 32, true, true},
		{"batch/N=32", 32, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var k *kernel.Kernel
			var r *Runtime
			if tc.proc {
				k, r, _ = newProcRig(t, 32)
			} else {
				k = newTestKernel()
				r = newDecafRuntime(k)
				r.SetTransport(BatchTransport{N: 32})
			}
			ctx := k.NewContext("test")
			ps := make([]Payload, tc.n)
			for i := range ps {
				ps[i] = Payload{Data: payload}
			}
			if tc.bySlot {
				ring, err := r.NewRing(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.RegisterPayloadRing(ctx, ring); err != nil {
					t.Fatal(err)
				}
				for i := range ps {
					if ps[i] = r.AcquirePayload(payload); !ps[i].Slot.Valid() {
						t.Fatal("payload did not stage into the ring")
					}
				}
				defer r.ReleasePayloads(ps)
			}
			b := r.Batch(ctx)
			queue := func() {
				for _, p := range ps {
					b.UpcallHandlerPayload("xpctest_count", p)
				}
			}
			flush := func() {
				queue()
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			flushAsync := func() {
				queue()
				if err := b.FlushAsync().Wait(ctx); err != nil {
					t.Fatal(err)
				}
			}
			sugar := func() {
				if err := r.UpcallHandlerData(ctx, "xpctest_count", payload); err != nil {
					t.Fatal(err)
				}
			}
			flush() // spawn the worker, grow the scratch to N records
			before := r.SharedState().Load(testCellServed)
			if avg := testing.AllocsPerRun(100, flush); avg != 0 {
				t.Errorf("Flush of %d calls allocates %.2f objects, want 0", tc.n, avg)
			}
			if avg := testing.AllocsPerRun(100, flushAsync); avg > 2 {
				t.Errorf("FlushAsync+Wait of %d calls allocates %.2f objects, want <= 2", tc.n, avg)
			}
			if avg := testing.AllocsPerRun(100, sugar); avg != 0 {
				t.Errorf("blocking UpcallHandlerData allocates %.2f objects, want 0", avg)
			}
			// AllocsPerRun calls its function 101 times.
			if got, want := r.SharedState().Load(testCellServed)-before, uint64(101*(2*tc.n+1)); got != want {
				t.Errorf("handler bodies served %d calls, want %d", got, want)
			}
			if c := r.Counters(); c.InFlight != 0 {
				t.Errorf("InFlight = %d after the flushes", c.InFlight)
			}
		})
	}
}

// TestCompletionSettleSemantics walks the lazy-channel completion through
// every order a waiter and the resolver can meet in.
func TestCompletionSettleSemantics(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	boom := errors.New("boom")

	t.Run("done before resolve", func(t *testing.T) {
		c := &Completion{name: "t"}
		ch := c.Done()
		if closed(ch) || c.Settled(time.Hour) {
			t.Fatal("settled before resolve")
		}
		if again := c.Done(); again != ch {
			t.Fatal("second Done returned a different channel")
		}
		c.resolve(boom, false, 0)
		if !closed(ch) || !c.Settled(0) || c.Err() != boom {
			t.Fatalf("after resolve: closed=%v settled=%v err=%v", closed(ch), c.Settled(0), c.Err())
		}
	})

	t.Run("done after resolve", func(t *testing.T) {
		c := &Completion{name: "t"}
		c.resolve(boom, false, 0)
		if !closed(c.Done()) || c.Done() != c.Done() {
			t.Fatal("Done after resolve is not one closed channel")
		}
		if c.Err() != boom || c.Wait(nil) != boom {
			t.Fatal("accessors lost the outcome")
		}
	})

	t.Run("resolved twice", func(t *testing.T) {
		c := &Completion{name: "t"}
		c.resolve(nil, false, 0)
		defer func() {
			if recover() == nil {
				t.Fatal("second resolve went unnoticed")
			}
		}()
		c.resolve(nil, false, 0)
	})

	t.Run("done races resolve", func(t *testing.T) {
		for i := 0; i < 2000; i++ {
			c := &Completion{name: "t"}
			var wg sync.WaitGroup
			wg.Add(3)
			go func() { defer wg.Done(); c.resolve(boom, false, 0) }()
			for w := 0; w < 2; w++ {
				go func() {
					defer wg.Done()
					<-c.Done()
					if c.Err() != boom {
						t.Error("woke before the outcome was published")
					}
				}()
			}
			wg.Wait()
		}
	})

	t.Run("many waiters on an async completion", func(t *testing.T) {
		k := newTestKernel()
		r, _ := newAsyncRuntime(k, AsyncConfig{})
		defer r.SetTransport(nil)
		ctx := k.NewContext("t")
		gate := make(chan struct{})
		sub := r.NewSubmission(&Call{Name: "held", Up: true, Fn: func(*kernel.Context) error {
			<-gate
			return boom
		}})
		if err := r.Transport().Submit(r, ctx, []*Submission{sub}); err != nil {
			t.Fatal(err)
		}
		if sub.Completion.Settled(time.Hour) {
			t.Fatal("settled while its body is still held")
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var err error
				if w%2 == 0 {
					err = sub.Completion.Wait(nil)
				} else {
					<-sub.Completion.Done()
					err = sub.Completion.Err()
				}
				if err != boom {
					t.Errorf("waiter %d: err = %v", w, err)
				}
			}(w)
		}
		close(gate)
		wg.Wait()
		if c := r.Counters(); c.InFlight != 0 {
			t.Fatalf("InFlight = %d", c.InFlight)
		}
	})
}

// TestFlushAsyncCarriesStickyError: a builder error (here a misspelt handler
// name) must surface through FlushAsync's handle exactly as through Flush —
// both NIC data paths flush that way.
func TestFlushAsyncCarriesStickyError(t *testing.T) {
	for _, rig := range flushRigs {
		t.Run(rig.name, func(t *testing.T) {
			k, r := rig.new(t)
			ctx := k.NewContext("t")
			build := func() *Batch {
				return r.Batch(ctx).UpcallHandler("xpctest_count").UpcallHandler("no_such_handler").UpcallHandler("xpctest_count")
			}
			want := build().Flush()
			if want == nil || !strings.Contains(want.Error(), "no handler registered") {
				t.Fatalf("Flush = %v, want the missing-handler error", want)
			}
			done := build().FlushAsync()
			if got := done.Wait(ctx); got == nil || got.Error() != want.Error() {
				t.Fatalf("FlushAsync().Wait = %v, want %v", got, want)
			}
			// An empty flush after a builder error carries it too.
			if got := r.Batch(ctx).UpcallHandler("no_such_handler").FlushAsync().Err(); got == nil {
				t.Fatal("empty FlushAsync swallowed the sticky error")
			}
		})
	}
}

// TestRecordReuseStorm drives every kind of flush through recycled records
// on every transport. A record reads as recycledName / errRecycled while it
// sits in the pool, so anything that held on to one past its flush — a
// transport touching a submission after resolving it, an aggregate reading
// children that were handed back — shows up here as that name in a counter,
// an observer or a fault event, or as that error from a flush; under -race
// it shows up as a race as well. Exactly-once resolution is checked by the
// in-flight gauge returning to zero (a second resolve panics, a missing one
// hangs the flush).
func TestRecordReuseStorm(t *testing.T) {
	for _, rig := range flushRigs {
		t.Run(rig.name, func(t *testing.T) {
			k, r := rig.new(t)
			r.Latency = ZeroLatencyModel
			pt, isProc := r.Transport().(*ProcTransport)
			_, isAsync := r.Transport().(*AsyncTransport)

			var poisoned atomic.Int64
			sawPoison := func(name string, err error) {
				if name == recycledName || errors.Is(err, errRecycled) {
					poisoned.Add(1)
				}
			}
			r.SetFaultNotifier(func(ev FaultEvent) { sawPoison(ev.Call, ev.Err) })
			r.SetCompletionObserver(func(name string, _, _ time.Duration, _ bool) { sawPoison(name, nil) })
			r.SetFaultInjector(func(call string) bool { return call == "storm_inject" })

			// Inline transports run bodies on the one decaf context, so they
			// get one submitter; the async service serializes for itself.
			submitters := 1
			if isAsync {
				submitters = 3
			}
			noop := func(*kernel.Context) error { return nil }
			fail := []byte{1}
			check := func(what string, err error, wantSub string) {
				t.Helper()
				if err != nil {
					sawPoison("", err)
					if strings.Contains(err.Error(), recycledName) {
						poisoned.Add(1)
					}
				}
				// A killed (or fault-killed) worker may fail any flush that
				// was crossing at the time; that is containment, not reuse.
				if isProc && err != nil && (IsUserFault(err) || errors.Is(err, ErrCrossingAborted)) {
					return
				}
				switch {
				case wantSub == "" && err != nil:
					t.Errorf("%s: %v", what, err)
				case wantSub != "" && (err == nil || !strings.Contains(err.Error(), wantSub)):
					t.Errorf("%s: err = %v, want one containing %q", what, err, wantSub)
				}
			}
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					ctx := k.NewContext(fmt.Sprintf("storm-%d", s))
					b := r.Batch(ctx) // one long-lived builder, reused across flushes
					for i := 0; i < 120; i++ {
						switch i % 6 {
						case 0: // several chunks, waited out
							for j := 0; j < 9; j++ {
								b.UpcallHandlerData("xpctest_count", []byte{byte(j)})
							}
							check("flush", b.Flush(), "")
						case 1: // the aggregate handle, waited on later
							for j := 0; j < 5; j++ {
								b.UpcallHandler("xpctest_count")
							}
							done := b.FlushAsync()
							_ = r.Upcall(ctx, "between", noop) // proc: may meet a dead worker
							check("flush async", done.Wait(ctx), "")
							if !done.Settled(1<<62) || done.Err() != done.Wait(nil) {
								t.Error("aggregate handle is not stable after Wait")
							}
						case 2: // sticky builder error, later adds dropped
							b.UpcallHandler("xpctest_count").UpcallHandler("no_such_handler").UpcallHandler("xpctest_count")
							check("sticky", b.Flush(), "no handler registered")
						case 3: // a failing body aborts (or, async, outlives) its chunk
							b.UpcallHandler("xpctest_count").UpcallHandlerData("xpctest_fail", fail)
							b.UpcallHandler("xpctest_count").UpcallHandler("xpctest_count")
							check("chunk abort", b.Flush(), "requested failure")
						case 4: // an injected fault, through the sugar and through a batch
							check("injected", r.Upcall(ctx, "storm_inject", noop), "user-level fault")
							b.Upcall("storm_ok", noop).Upcall("storm_inject", noop).Upcall("storm_ok", noop)
							check("injected batch", b.FlushAsync().Wait(ctx), "user-level fault")
						case 5: // the worker dies under (or between) flushes
							if isProc {
								pt.KillWorker()
							}
							check("sugar", r.UpcallHandlerData(ctx, "xpctest_count", []byte{9}), "")
						}
					}
				}(s)
			}
			wg.Wait()
			if err := r.DrainCrossings(k.NewContext("drain")); err != nil {
				t.Fatal(err)
			}
			c := r.Counters()
			if c.InFlight != 0 {
				t.Errorf("InFlight = %d after the storm: a completion was never resolved", c.InFlight)
			}
			if n := poisoned.Load(); n != 0 {
				t.Errorf("a recycled record was observed %d time(s)", n)
			}
			for name := range c.PerCall {
				if name == recycledName {
					t.Errorf("a recycled record was counted: PerCall[%q] = %d", name, c.PerCall[name])
				}
			}
			if n := c.FaultsByCall[recycledName]; n != 0 {
				t.Errorf("a recycled record faulted %d time(s)", n)
			}
			if c.Submissions == 0 || c.Faults == 0 {
				t.Errorf("storm did not run: %d submissions, %d faults", c.Submissions, c.Faults)
			}
		})
	}
}
