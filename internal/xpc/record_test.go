//go:build unix

package xpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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
	{"proc", func(t *testing.T) (*kernel.Kernel, *Runtime) {
		k, r, _ := newProcRig(t, 4)
		return k, r
	}},
}

// TestFlushAllocFree pins the whole handler-call path at zero heap objects:
// N × UpcallHandlerData → Flush() over a real worker, by copy and by slot,
// and over the in-process batch transport. The builder is made once and
// reused, as a long-lived caller would: Runtime.Batch itself is one object
// (see its comment), which the blocking sugar — a builder on its own stack
// — does not pay.
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
			flush := func() {
				for _, p := range ps {
					b.CallPayload(hCount, p)
				}
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			sugar := func() {
				if err := r.CallData(ctx, hCount, payload); err != nil {
					t.Fatal(err)
				}
			}
			flush() // spawn the worker, grow the scratch to N records
			before := r.SharedState().Load(testCellServed)
			if avg := testing.AllocsPerRun(100, flush); avg != 0 {
				t.Errorf("Flush of %d calls allocates %.2f objects, want 0", tc.n, avg)
			}
			if avg := testing.AllocsPerRun(100, sugar); avg != 0 {
				t.Errorf("blocking UpcallHandlerData allocates %.2f objects, want 0", avg)
			}
			// AllocsPerRun calls its function 101 times.
			if got, want := r.SharedState().Load(testCellServed)-before, uint64(101*(tc.n+1)); got != want {
				t.Errorf("handler bodies served %d calls, want %d", got, want)
			}
			if c := r.Counters(); c.InFlight != 0 {
				t.Errorf("InFlight = %d after the flushes", c.InFlight)
			}
		})
	}
}

// TestCompletionSettleSemantics: every transport resolves a completion
// before Submit returns, so a completion resolves exactly once, and reading
// one no transport resolved is a bug that panics rather than a wait.
func TestCompletionSettleSemantics(t *testing.T) {
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s went unnoticed", what)
			}
		}()
		f()
	}

	t.Run("resolved twice", func(t *testing.T) {
		c := &Completion{name: "t"}
		c.resolve(nil, false, 0)
		mustPanic(t, "second resolve", func() { c.resolve(nil, false, 0) })
	})

	t.Run("read before resolve", func(t *testing.T) {
		c := &Completion{name: "t"}
		mustPanic(t, "reading an unresolved completion", func() { _ = c.outcome() })
		boom := errors.New("boom")
		c.resolve(boom, false, 0)
		if !c.settled || c.outcome() != boom || c.outcome() != boom {
			t.Fatalf("after resolve: settled=%v err=%v", c.settled, c.err)
		}
	})
}

// TestSubmitSettlesEveryCompletion pins the rule Batch.Flush rests on: every
// transport resolves every submission's completion, exactly once, before
// Submit returns, whatever the outcome — success, a handler error, an
// injected fault, the abort of what follows a failure, a closed or
// foreign-bound transport, a worker that dies mid-chunk — and the in-flight
// gauge is back at zero. A second resolve panics inside Submit.
func TestSubmitSettlesEveryCompletion(t *testing.T) {
	ok := func(err error) bool { return err == nil }
	fault := func(err error) bool { return IsUserFault(err) }
	aborted := func(err error) bool { return errors.Is(err, ErrCrossingAborted) }
	failed := func(err error) bool { return err != nil && strings.Contains(err.Error(), "requested failure") }
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	// n copies of want, for the calls behind a failure.
	times := func(n int, want func(error) bool) []func(error) bool {
		ws := make([]func(error) bool, n)
		for i := range ws {
			ws[i] = want
		}
		return ws
	}
	sinks := func(n int) []string {
		names := make([]string, n)
		for i := range names {
			names[i] = "xpcbench_sink"
		}
		return names
	}

	type rig struct {
		name string
		proc bool
		new  func(t *testing.T) Transport
	}
	rigs := []rig{
		{"batch_N=1", false, func(*testing.T) Transport { return BatchTransport{N: 1} }},
		{"batch_N=16", false, func(*testing.T) Transport { return BatchTransport{N: 16} }},
		{"proc", true, func(t *testing.T) Transport {
			pt, err := NewProcTransport(ProcConfig{Batch: 4})
			if err != nil {
				t.Skip(err)
			}
			return pt
		}},
	}
	cases := []struct {
		name     string
		procOnly bool
		calls    []string
		// prepare readies the transport and returns the runtime that
		// submits (the rig's own, unless the case needs another).
		prepare func(t *testing.T, r *Runtime, ctx *kernel.Context, tr Transport) *Runtime
		want    []func(error) bool
	}{
		{name: "success", calls: sinks(20), want: times(20, ok)},
		{name: "handler error", calls: []string{"xpctest_fail"}, want: times(1, failed)},
		{name: "injected fault", calls: sinks(3),
			prepare: func(t *testing.T, r *Runtime, _ *kernel.Context, _ Transport) *Runtime {
				n := 0
				r.SetFaultInjector(func(string) bool { n++; return n == 2 })
				return r
			},
			want: []func(error) bool{ok, fault, aborted}},
		{name: "chunk abort after a failure",
			calls: append([]string{"xpctest_count", "xpctest_fail"}, sinks(18)...),
			want:  append([]func(error) bool{ok, failed}, times(18, aborted)...)},
		{name: "transport closed", procOnly: true, calls: sinks(6),
			prepare: func(t *testing.T, r *Runtime, ctx *kernel.Context, tr Transport) *Runtime {
				if err := r.Call(ctx, hSink); err != nil {
					t.Fatal(err)
				}
				if err := tr.(*ProcTransport).Close(); err != nil {
					t.Fatal(err)
				}
				return r
			},
			want: times(6, is(ErrTransportClosed))},
		{name: "transport bound", procOnly: true, calls: sinks(6),
			prepare: func(t *testing.T, r *Runtime, ctx *kernel.Context, _ Transport) *Runtime {
				if err := r.Call(ctx, hSink); err != nil {
					t.Fatal(err)
				}
				return newDecafRuntime(newTestKernel())
			},
			want: times(6, is(ErrTransportBound))},
		{name: "worker dies mid-chunk", procOnly: true,
			calls: append([]string{"xpcbench_sink", "xpctest_exit"}, sinks(6)...),
			want:  append([]func(error) bool{ok, fault}, times(6, aborted)...)},
	}
	for _, rg := range rigs {
		for _, tc := range cases {
			if tc.procOnly && !rg.proc {
				continue
			}
			t.Run(rg.name+"/"+tc.name, func(t *testing.T) {
				k := newTestKernel()
				r := newDecafRuntime(k)
				tr := rg.new(t)
				r.SetTransport(tr)
				defer r.SetTransport(nil)
				ctx := k.NewContext("t")
				submitter := r
				if tc.prepare != nil {
					submitter = tc.prepare(t, r, ctx, tr)
				}
				data := make([][]byte, len(tc.calls))
				for i := range data {
					data[i] = []byte{1} // xpctest_fail fails on it
				}
				subs := procSubs(submitter, tc.calls, data)
				_ = tr.Submit(submitter, ctx, subs)
				for i, sub := range subs {
					c := sub.Completion
					if !c.settled {
						t.Fatalf("call %d (%s) unresolved when Submit returned", i, tc.calls[i])
					}
					if !tc.want[i](c.err) {
						t.Errorf("call %d (%s) resolved %v", i, tc.calls[i], c.err)
					}
				}
				if c := submitter.Counters(); c.InFlight != 0 {
					t.Errorf("InFlight = %d after Submit", c.InFlight)
				}
			})
		}
	}
}

// TestFlushCarriesStickyError: a builder error (here a misspelt handler
// name) surfaces through Flush, which still crosses what was queued before
// it and drops what came after; an empty flush after a builder error must
// not swallow it; and the flush clears it, so the builder is reusable.
func TestFlushCarriesStickyError(t *testing.T) {
	for _, rig := range flushRigs {
		t.Run(rig.name, func(t *testing.T) {
			k, r := rig.new(t)
			ctx := k.NewContext("t")
			b := r.Batch(ctx)
			served := r.SharedState().Load(testCellServed)
			err := b.Call(hCount).UpcallHandler("no_such_handler").Call(hCount).Flush()
			if err == nil || !strings.Contains(err.Error(), "no handler registered") {
				t.Fatalf("Flush = %v, want the missing-handler error", err)
			}
			if got := r.SharedState().Load(testCellServed) - served; got != 1 {
				t.Fatalf("%d calls crossed, want the 1 queued before the error", got)
			}
			if err := b.UpcallHandler("no_such_handler").Flush(); err == nil {
				t.Fatal("empty Flush swallowed the sticky error")
			}
			if err := b.Call(hCount).Flush(); err != nil {
				t.Fatalf("Flush after the sticky error was reported: %v", err)
			}
			if c := r.Counters(); c.InFlight != 0 {
				t.Fatalf("InFlight = %d", c.InFlight)
			}
		})
	}
}

// TestRecordReuseStorm drives every kind of flush through recycled records
// on every transport. A record reads as recycledName / errRecycled while it
// sits in the pool, so anything that held on to one past its flush — a
// transport touching a submission after Submit returned, a crossing reading
// another flush's records — shows up here as that name in a counter or a
// fault event, or as that error from a flush; under -race it shows up as a
// race as well. Exactly-once resolution is checked by the in-flight gauge
// returning to zero (a second resolve panics, and so does a flush reading a
// completion its transport left unresolved).
func TestRecordReuseStorm(t *testing.T) {
	for _, rig := range flushRigs {
		t.Run(rig.name, func(t *testing.T) {
			k, r := rig.new(t)
			r.Latency = ZeroLatencyModel
			pt, isProc := r.Transport().(*ProcTransport)

			var poisoned atomic.Int64
			sawPoison := func(name string, err error) {
				if name == recycledName || errors.Is(err, errRecycled) {
					poisoned.Add(1)
				}
			}
			r.SetFaultNotifier(func(ev FaultEvent) { sawPoison(ev.Call, ev.Err) })
			r.SetFaultInjector(func(call string) bool { return call == "xpcbench_sink" })

			// The proc row storms from three submitters at once: each
			// resolves its own completions and recycles its own records,
			// concurrently. The in-process rows run every body inline on
			// the runtime's one decaf context, so they keep one.
			submitters := 1
			if isProc {
				submitters = 3
			}
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
			storm := func(ctx *kernel.Context) {
				b := r.Batch(ctx) // one long-lived builder, reused across flushes
				for i := 0; i < 120; i++ {
					switch i % 6 {
					case 0: // several chunks, waited out
						for j := 0; j < 9; j++ {
							b.CallData(hCount, []byte{byte(j)})
						}
						check("flush", b.Flush(), "")
					case 1: // another flush crosses while this one is queued
						for j := 0; j < 5; j++ {
							b.Call(hCount)
						}
						_ = r.Call(ctx, hCount) // proc: may meet a dead worker
						check("interleaved flush", b.Flush(), "")
					case 2: // sticky builder error, later adds dropped
						b.Call(hCount).UpcallHandler("no_such_handler").Call(hCount)
						check("sticky", b.Flush(), "no handler registered")
					case 3: // a failing body aborts its chunk
						b.Call(hCount).CallData(hFail, fail)
						b.Call(hCount).Call(hCount)
						check("chunk abort", b.Flush(), "requested failure")
					case 4: // an injected fault, through the sugar and through a batch
						check("injected", r.Call(ctx, hSink), "user-level fault")
						b.Call(hCount).Call(hSink).Call(hCount)
						check("injected batch", b.Flush(), "user-level fault")
					case 5: // the worker dies under (or between) flushes
						if isProc {
							pt.KillWorker()
						}
						check("sugar", r.CallData(ctx, hCount, []byte{9}), "")
					}
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < submitters; w++ {
				ctx := k.NewContext(fmt.Sprintf("storm-%d", w))
				wg.Add(1)
				go func() {
					defer wg.Done()
					storm(ctx)
				}()
			}
			wg.Wait()
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
