package xpc

import (
	"errors"
	"testing"
	"time"
)

// settleAt fabricates an admitted, resolved completion whose virtual
// completion instant is at: the shape an async transport produces, letting
// the pipeline tests control settle times directly.
func settleAt(r *Runtime, name string, at time.Duration, err error, fault bool) *Completion {
	sub := r.NewSubmission(&Call{Name: name, Up: true})
	r.Admit([]*Submission{sub})
	sub.Completion.completeAt = at
	sub.Completion.resolve(err, fault, 0)
	return sub.Completion
}

func TestFlushPipelineReapOrdering(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	var p FlushPipeline[int]

	p.Push(settleAt(r, "a", 10*time.Millisecond, nil, false), 1)
	p.Push(settleAt(r, "b", 20*time.Millisecond, nil, false), 2)
	p.Push(settleAt(r, "c", 30*time.Millisecond, nil, false), 3)
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}

	var got []int
	deliver := func(v int) { got = append(got, v) }
	drop := func(v int, err error) { t.Fatalf("dropped %d: %v", v, err) }

	// Only flushes settled by `now` reap, oldest first; the first unsettled
	// flush stops the sweep even if later entries were examined.
	if err := p.Reap(ctx, 15*time.Millisecond, false, deliver, drop); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 || p.Len() != 2 {
		t.Fatalf("after partial reap: got %v, Len %d", got, p.Len())
	}
	if err := p.Reap(ctx, 35*time.Millisecond, false, deliver, drop); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("FIFO order violated: %v", got)
	}
	if p.Len() != 0 {
		t.Fatalf("Len after full reap = %d", p.Len())
	}
}

func TestFlushPipelineForceChargesResidualStall(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	var p FlushPipeline[string]

	const due = 40 * time.Millisecond
	p.Push(settleAt(r, "tx", due, nil, false), "frames")

	delivered := 0
	before := ctx.Elapsed()
	// now=0: nothing has settled, but force waits out the oldest flush,
	// charging the caller the catch-up to its virtual completion instant.
	if err := p.Reap(ctx, 0, true, func(string) { delivered++ }, nil); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("forced reap delivered %d flushes", delivered)
	}
	if stall := ctx.Elapsed() - before; stall != due {
		t.Fatalf("forced reap charged %v, want %v", stall, due)
	}
	c := r.Counters()
	if c.Stall != due {
		t.Fatalf("Stall counter = %v, want %v", c.Stall, due)
	}

	// A second forced reap of a flush due earlier than the wait frontier
	// charges nothing more: the stall was already paid.
	p.Push(settleAt(r, "tx", 10*time.Millisecond, nil, false), "late")
	before = ctx.Elapsed()
	if err := p.Reap(ctx, 0, true, func(string) {}, nil); err != nil {
		t.Fatal(err)
	}
	if extra := ctx.Elapsed() - before; extra != 0 {
		t.Fatalf("already-covered reap charged %v", extra)
	}
}

func TestFlushPipelineContainedFaultDropsOnlyItsFlush(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	var p FlushPipeline[int]

	fault := &UserFault{Call: "rx", Cause: "nil deref"}
	p.Push(settleAt(r, "rx", time.Millisecond, nil, false), 1)
	p.Push(settleAt(r, "rx", 2*time.Millisecond, fault, true), 2)
	p.Push(settleAt(r, "rx", 3*time.Millisecond, nil, false), 3)

	var delivered, dropped []int
	var dropErr error
	err := p.Reap(ctx, 5*time.Millisecond, false,
		func(v int) { delivered = append(delivered, v) },
		func(v int, e error) { dropped = append(dropped, v); dropErr = e })
	// The fault fails its own flush and is reported, but the kernel-side
	// sweep continues: later settled flushes still deliver.
	var uf *UserFault
	if !errors.As(err, &uf) {
		t.Fatalf("Reap error = %v, want the contained fault", err)
	}
	if len(delivered) != 2 || delivered[0] != 1 || delivered[1] != 3 {
		t.Fatalf("delivered %v, want [1 3]", delivered)
	}
	if len(dropped) != 1 || dropped[0] != 2 || !errors.As(dropErr, &uf) {
		t.Fatalf("dropped %v (err %v), want [2] with the fault", dropped, dropErr)
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestFlushPipelineDrainWaitsEverything(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	var p FlushPipeline[int]

	boom := errors.New("flush failed")
	p.Push(settleAt(r, "x", 10*time.Millisecond, nil, false), 1)
	p.Push(settleAt(r, "x", 20*time.Millisecond, boom, false), 2)
	p.Push(settleAt(r, "x", 30*time.Millisecond, nil, false), 3)

	var delivered, dropped []int
	err := p.Drain(ctx,
		func(v int) { delivered = append(delivered, v) },
		func(v int, _ error) { dropped = append(dropped, v) })
	if !errors.Is(err, boom) {
		t.Fatalf("Drain error = %v, want first flush error", err)
	}
	if len(delivered) != 2 || len(dropped) != 1 || p.Len() != 0 {
		t.Fatalf("delivered %v dropped %v Len %d", delivered, dropped, p.Len())
	}
	// Drain force-waited the deepest flush: the caller's timeline reached
	// its completion instant.
	if ctx.Elapsed() < 30*time.Millisecond {
		t.Fatalf("Drain charged only %v", ctx.Elapsed())
	}
}

// TestFlushPipelineSteadyStateAllocFree: a pipeline cycling at the depth the
// drivers hold it to reuses one backing array for good — whether each reap
// empties it or, as under an async transport with traffic always in flight,
// it never empties at all. Popping by reslicing the front away (the earlier
// shape) walked the slice off the end of its array every few flushes and
// reallocated for ever.
func TestFlushPipelineSteadyStateAllocFree(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	settled := settleAt(r, "settled", 0, nil, false)
	pending := settleAt(r, "pending", time.Hour, nil, false)
	payload := new(int)
	delivered := 0
	deliver := func(*int) { delivered++ }
	drop := func(*int, error) { t.Error("dropped a successful flush") }

	var drained FlushPipeline[*int]
	drainCycle := func() {
		for i := 0; i < 4; i++ {
			drained.Push(settled, payload)
		}
		if err := drained.Reap(ctx, 0, false, deliver, drop); err != nil {
			t.Error(err)
		}
	}
	drainCycle()
	if allocs := testing.AllocsPerRun(200, drainCycle); allocs != 0 {
		t.Errorf("push 4 / reap 4: %v allocs per cycle, want 0", allocs)
	}

	// Never empty: every cycle leaves an unsettled flush at the tail and the
	// next one reaps it by force.
	var busy FlushPipeline[*int]
	busy.Push(pending, payload)
	busyCycle := func() {
		busy.Push(settled, payload)
		busy.Push(pending, payload)
		if err := busy.Reap(ctx, 0, true, deliver, drop); err != nil {
			t.Error(err)
		}
		if busy.Len() != 1 {
			t.Errorf("Len = %d after the cycle, want the one unsettled flush", busy.Len())
		}
	}
	busyCycle()
	if allocs := testing.AllocsPerRun(200, busyCycle); allocs != 0 {
		t.Errorf("never-empty pipeline: %v allocs per cycle, want 0", allocs)
	}
}

// TestFlushPipelineReapUnpinsPayload: a reaped entry's slot in the backing
// array is cleared, so the pipeline does not keep a delivered flight (and
// the frames it lists) reachable until the slot happens to be overwritten.
func TestFlushPipelineReapUnpinsPayload(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	var p FlushPipeline[*int]
	for i := 0; i < 3; i++ {
		p.Push(settleAt(r, "x", 0, nil, false), new(int))
	}
	if err := p.Reap(ctx, 0, false, func(*int) {}, nil); err != nil {
		t.Fatal(err)
	}
	for i, e := range p.entries[:3] {
		if e.done != nil || e.payload != nil {
			t.Fatalf("slot %d still holds its reaped entry: %+v", i, e)
		}
	}
}

// TestFlightPoolRecyclesFlights: after the first flight, staging and
// releasing allocate nothing — the item and payload lists are the ones an
// earlier flight handed back — and a released flight keeps neither its
// items nor a copy-path payload's bytes reachable.
func TestFlightPoolRecyclesFlights(t *testing.T) {
	k := newTestKernel()
	r := newDecafRuntime(k)
	ctx := k.NewContext("t")
	ring := NewPayloadRing(4, 64)
	if err := r.RegisterPayloadRing(ctx, ring); err != nil {
		t.Fatal(err)
	}
	frames := make([]*[]byte, 6) // two more than the ring has slots
	for i := range frames {
		b := []byte{byte(i), 1, 2, 3}
		frames[i] = &b
	}
	var pool FlightPool[*[]byte]
	stage := func(frames []*[]byte) Flight[*[]byte] {
		f := pool.Get()
		for _, b := range frames {
			f.Stage(r, b, *b)
		}
		return f
	}
	f := stage(frames)
	if len(f.Items) != len(frames) || len(f.Payloads) != len(frames) {
		t.Fatalf("flight carries %d items / %d payloads, want %d", len(f.Items), len(f.Payloads), len(frames))
	}
	for i, p := range f.Payloads {
		if direct := i < ring.Slots(); p.Direct() != direct {
			t.Fatalf("payload %d direct = %v: the ring has %d slots, the rest fall back to the copy path", i, p.Direct(), ring.Slots())
		}
	}
	if ring.Exhausted() != 2 {
		t.Fatalf("Exhausted = %d, want the 2 frames past the ring", ring.Exhausted())
	}
	pool.Release(r, f)
	if ring.InUse() != 0 {
		t.Fatalf("%d slots still held after Release", ring.InUse())
	}
	for i := range f.Items[:len(frames)] {
		if f.Items[:len(frames)][i] != nil || f.Payloads[:len(frames)][i].Data != nil {
			t.Fatalf("released flight still reaches item %d", i)
		}
	}

	again := stage(frames[:2])
	if &again.Items[0] != &f.Items[:1][0] {
		t.Fatal("the second flight did not reuse the first one's item list")
	}
	pool.Release(r, again)
	cycle := func() { pool.Release(r, stage(frames)) }
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("stage + release: %v allocs per flight, want 0", allocs)
	}
}
