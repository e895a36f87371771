package xpc

import (
	"sync"
	"testing"

	"decafdrivers/internal/trace"
)

// TestCountersSnapshotDuringReset is the epoch-swap race regression: one
// goroutine snapshots Counters() while others cross and a fourth swaps
// fresh counter epochs via ResetCounters. The race detector (the CI race
// job runs this package with -race) proves the snapshot never reads a cell
// an epoch swap is concurrently tearing down, and every snapshot is
// internally consistent (a fresh epoch can only shrink counts, never
// produce garbage).
func TestCountersSnapshotDuringReset(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)

	const crossers = 4
	const crossings = 300
	var crossWG, bgWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < crossers; w++ {
		crossWG.Add(1)
		go func() {
			defer crossWG.Done()
			ctx := k.NewContext("crosser")
			for i := 0; i < crossings; i++ {
				if err := r.Call(ctx, hSink); err != nil {
					t.Errorf("upcall: %v", err)
					return
				}
			}
		}()
	}

	bgWG.Add(2)
	go func() {
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.ResetCounters()
			}
		}
	}()
	go func() {
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c := r.Counters()
				if c.Upcalls > crossers*crossings {
					t.Errorf("snapshot overcounted: %d upcalls", c.Upcalls)
					return
				}
				if c.PerCall["xpcbench_sink"] > crossers*crossings {
					t.Errorf("snapshot overcounted per-call: %d", c.PerCall["xpcbench_sink"])
					return
				}
			}
		}
	}()

	// Stop the reset/snapshot goroutines only after the crossers finish, so
	// epoch swaps and snapshots overlap live crossings for the whole run.
	crossWG.Wait()
	close(stop)
	bgWG.Wait()
}

// TestCountersTraceGaugesSurviveReset pins the documented contract: the
// flight-recorder gauges are recorder-lifetime, so ResetCounters (an epoch
// swap) must not zero TraceEvents/TraceDropped.
func TestCountersTraceGaugesSurviveReset(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	rec := trace.NewRecorder(16)
	r.SetTracer(rec)
	rec.Emit(trace.KindSubmit, trace.LaneNone, trace.SrcKernel, 0, 1)
	rec.Emit(trace.KindSubmit, trace.LaneNone, trace.SrcKernel, 0, 1)
	if c := r.Counters(); c.TraceEvents != 2 {
		t.Fatalf("TraceEvents = %d, want 2", c.TraceEvents)
	}
	r.ResetCounters()
	if c := r.Counters(); c.TraceEvents != 2 {
		t.Errorf("TraceEvents after ResetCounters = %d, want 2 (recorder-lifetime gauge)", c.TraceEvents)
	}
	r.SetTracer(nil)
	if c := r.Counters(); c.TraceEvents != 0 {
		t.Errorf("TraceEvents with tracer removed = %d, want 0", c.TraceEvents)
	}
}

// TestAdmitEmitsSubmitEvent pins the Admit instrumentation: one KindSubmit
// record per admitted chunk, none when no tracer is installed.
func TestAdmitEmitsSubmitEvent(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	subs := []*Submission{r.NewSubmission(&Call{Name: "tx", Up: true})}
	r.Admit(subs)
	subs[0].Completion.resolve(nil, false, 0)

	rec := trace.NewRecorder(16)
	r.SetTracer(rec)
	subs = []*Submission{
		r.NewSubmission(&Call{Name: "tx", Up: true}),
		r.NewSubmission(&Call{Name: "tx", Up: true}),
	}
	r.Admit(subs)
	for _, s := range subs {
		s.Completion.resolve(nil, false, 0)
	}
	emitted, _ := rec.Stats()
	if emitted != 1 {
		t.Fatalf("recorder has %d events, want 1 (one per admitted chunk)", emitted)
	}
	if c := r.Counters(); c.TraceEvents != 1 {
		t.Errorf("Counters.TraceEvents = %d, want 1", c.TraceEvents)
	}
}
