package xpc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"decafdrivers/internal/kernel"
)

// BackpressurePolicy selects what Submit does when the async ring is full.
type BackpressurePolicy int

const (
	// BackpressureBlock makes Submit wait for ring space, charging the
	// submitter the virtual time needed to catch up to the service
	// timeline's backlog — the queue is doing its job of smoothing bursts,
	// and a sustained overload surfaces as caller stall again.
	BackpressureBlock BackpressurePolicy = iota
	// BackpressureFail makes Submit resolve unqueueable submissions with
	// ErrQueueFull immediately, never blocking the submitter — drop-on-
	// overload semantics, as a NIC ring overrun drops frames.
	BackpressureFail
)

func (p BackpressurePolicy) String() string {
	if p == BackpressureFail {
		return "fail-fast"
	}
	return "block"
}

// DefaultQueueDepth is the submission-ring capacity a zero AsyncConfig gets.
const DefaultQueueDepth = 256

// AsyncConfig sizes an AsyncTransport.
type AsyncConfig struct {
	// Depth bounds the submission ring; <1 means DefaultQueueDepth.
	Depth int
	// Batch is the most calls one crossing may coalesce when the service
	// goroutine drains the ring; <1 means DefaultBatchSize.
	Batch int
	// Policy selects the backpressure behavior on a full ring.
	Policy BackpressurePolicy
}

// AsyncTransport completes the §4.2 story: the kernel side submits
// crossings and continues, while the decaf side drains a bounded ring on a
// dedicated goroutine with its own execution context — its own virtual
// timeline, the model of the decaf runtime thread the paper gives the
// user-level half.
//
// Submissions are enqueued in order and serviced FIFO; the service
// goroutine coalesces up to Batch same-direction submissions per physical
// crossing (so crossings-per-packet matches a BatchTransport of the same
// size) and resolves each submission's Completion in order, stamping queue
// wait and crossing cost separately. Completion instants lie on the service
// timeline: a caller that keeps producing overlaps them for free, a caller
// that waits immediately stalls the full latency, and a full ring applies
// the configured backpressure policy.
//
// Unlike inline transports the service does not mask the driver's
// interrupts during upcall crossings: the kernel side keeps running by
// design, and the ring itself serializes decaf execution, which is what the
// §3.1.3 mask exists to guarantee.
//
// An AsyncTransport binds to the first Runtime that submits through it and
// must be Closed (directly, or by SetTransport replacing it) to stop the
// service goroutine.
type AsyncTransport struct {
	cfg AsyncConfig

	mu      sync.Mutex
	r       *Runtime
	ctx     *kernel.Context
	ring    chan []*Submission
	quit    chan struct{}
	stopped chan struct{}
	space   chan struct{} // signalled when ring occupancy drops
	closed  bool
	queued  int           // submissions enqueued and not yet dequeued
	pending int           // submissions accepted and not yet completed
	idle    chan struct{} // closed whenever pending drops to zero

	// svcFreeAt is the virtual instant the decaf timeline becomes free —
	// the service backlog Drain and blocking backpressure charge against.
	svcFreeAt atomic.Int64
}

// NewAsyncTransport creates an asynchronous submit/complete transport.
func NewAsyncTransport(cfg AsyncConfig) *AsyncTransport {
	if cfg.Depth < 1 {
		cfg.Depth = DefaultQueueDepth
	}
	if cfg.Batch < 1 {
		cfg.Batch = DefaultBatchSize
	}
	t := &AsyncTransport{cfg: cfg, idle: make(chan struct{})}
	close(t.idle) // nothing pending yet
	return t
}

// Name implements Transport.
func (t *AsyncTransport) Name() string {
	return fmt.Sprintf("async(q%d,b%d)", t.cfg.Depth, t.cfg.Batch)
}

// MaxBatch implements Transport: the service coalesces up to Batch calls
// per crossing, so Batch builders stream chunks of that size.
func (t *AsyncTransport) MaxBatch() int { return t.cfg.Batch }

// QueueDepth reports the ring capacity.
func (t *AsyncTransport) QueueDepth() int { return t.cfg.Depth }

// Policy reports the backpressure policy.
func (t *AsyncTransport) Policy() BackpressurePolicy { return t.cfg.Policy }

// bind attaches the transport to its runtime and starts the service
// goroutine on first use.
func (t *AsyncTransport) bind(r *Runtime) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrTransportClosed
	}
	if t.r == nil {
		t.r = r
		t.ctx = r.Kernel.NewContext("xpc-async")
		// Each ring entry is one Submit call's slice (at least one
		// submission each), so Depth slices can never hold more than
		// Depth submissions: sends under the lock cannot block.
		t.ring = make(chan []*Submission, t.cfg.Depth)
		t.quit = make(chan struct{})
		t.stopped = make(chan struct{})
		t.space = make(chan struct{}, 1)
		go t.serve()
		return nil
	}
	if t.r != r {
		return ErrTransportBound
	}
	return nil
}

// Submit implements Transport: admit, charge the enqueue cost, and hand the
// submissions to the service ring. The returned error reports only
// admission failures (full ring under fail-fast, closed transport); call
// results surface through the Completions.
//
// Submissions from the decaf side itself — nested downcalls out of an
// upcall body executing on the service goroutine — cross inline on the
// decaf timeline instead of queueing: the decaf runtime thread blocks on
// its own downcalls (queueing to itself would deadlock the service loop),
// and their cost rolls into the enclosing upcall's crossing time.
func (t *AsyncTransport) Submit(r *Runtime, ctx *kernel.Context, subs []*Submission) error {
	if len(subs) == 0 {
		return nil
	}
	if t.isDecafSide(r, ctx) {
		return t.submitDecafSide(r, ctx, subs)
	}
	r.Admit(subs)
	if err := t.bind(r); err != nil {
		for _, sub := range subs {
			sub.Completion.resolve(err, false, 0)
		}
		return err
	}
	r.Latency.chargeSubmit(ctx, len(subs))
	return t.enqueue(ctx, subs)
}

// isDecafSide reports whether ctx is a decaf-timeline context: the
// runtime's decaf execution context or the transport's service context.
func (t *AsyncTransport) isDecafSide(r *Runtime, ctx *kernel.Context) bool {
	if ctx == r.DecafContext() {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ctx != nil && ctx == t.ctx
}

// submitDecafSide crosses the submissions synchronously on the decaf
// timeline, coalescing as a BatchTransport of the same size would.
func (t *AsyncTransport) submitDecafSide(r *Runtime, ctx *kernel.Context, subs []*Submission) error {
	r.Admit(subs)
	return r.crossChunked(ctx, subs, t.cfg.Batch, decafSideCrossOptions)
}

// enqueue places one Submit call's slice on the ring as a single entry —
// submissions that were submitted together coalesce together, so one flush
// cannot split into multiple crossings under scheduling races — applying
// the backpressure policy when the ring lacks space.
func (t *AsyncTransport) enqueue(ctx *kernel.Context, subs []*Submission) error {
	resolveAll := func(err error) error {
		for _, sub := range subs {
			sub.Completion.resolve(err, false, 0)
		}
		return err
	}
	charged := false
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return resolveAll(ErrTransportClosed)
		}
		// A slice wider than the ring is accepted alone (it could never
		// fit otherwise); each entry holds at least one submission, so at
		// most Depth slices are ever queued and the send cannot block.
		if t.queued+len(subs) <= t.cfg.Depth || t.queued == 0 {
			t.queued += len(subs)
			if t.pending == 0 {
				t.idle = make(chan struct{})
			}
			t.pending += len(subs)
			t.r.noteEnqueued(len(subs))
			t.ring <- subs
			t.mu.Unlock()
			return nil
		}
		t.mu.Unlock()

		if t.cfg.Policy == BackpressureFail {
			return resolveAll(ErrQueueFull)
		}
		// Blocking backpressure: the submitter stalls until the decaf
		// timeline works off enough backlog to free space. The virtual
		// catch-up is charged once; further iterations only wait for the
		// physical slot.
		ctx.AssertMayBlock("XPC async submit (ring full) " + subs[0].Call.Name)
		if !charged {
			charged = true
			t.r.chargeCatchUp(ctx, subs[0].Call.Name, time.Duration(t.svcFreeAt.Load()))
		}
		select {
		case <-t.space:
		case <-t.quit:
			return resolveAll(ErrTransportClosed)
		}
	}
}

// finish marks n pending submissions finished, signalling idle waiters when
// the count reaches zero.
func (t *AsyncTransport) finish(n int) {
	if n == 0 {
		return
	}
	t.mu.Lock()
	t.pending -= n
	if t.pending == 0 {
		close(t.idle)
	}
	t.mu.Unlock()
}

// dequeued records n submissions leaving the ring and wakes one waiter
// blocked on backpressure.
func (t *AsyncTransport) dequeued(n int) {
	t.mu.Lock()
	t.queued -= n
	t.mu.Unlock()
	t.r.noteDequeued(n)
	select {
	case t.space <- struct{}{}:
	default:
	}
}

// serve is the decaf-side service loop: it drains the ring FIFO, coalescing
// same-direction submissions into crossings of up to Batch calls. Each ring
// entry is one Submit call's slice, so a flush submitted together always
// coalesces together; entries only merge across slices when a later
// submission had already (virtually) arrived by the time the crossing
// starts — the service runs in real time, but coalescing across virtual
// arrival gaps would manufacture queue wait that never happened on the
// modeled timeline.
//
// The backlog is the service's own storage: a dequeued slice is copied out
// at once, while all of it is still unresolved, because the slice belongs to
// its submitter again the moment its last completion resolves (the
// Transport ownership rule).
func (t *AsyncTransport) serve() {
	defer close(t.stopped)
	var backlog []*Submission // dequeued and awaiting crossing, FIFO
	for {
		if len(backlog) == 0 {
			select {
			case slice := <-t.ring:
				t.dequeued(len(slice))
				backlog = append(backlog, slice...)
			case <-t.quit:
				t.drainOnClose(backlog)
				return
			}
		}
		// The crossing starts when the decaf timeline is free and its
		// first submission has arrived.
		first := backlog[0]
		start := time.Duration(t.svcFreeAt.Load())
		if sc := first.Completion.submitClock; sc > start {
			start = sc
		}
		n := 1
		for n < t.cfg.Batch {
			if n == len(backlog) {
				// Top up from the ring without blocking.
				select {
				case slice := <-t.ring:
					t.dequeued(len(slice))
					backlog = append(backlog, slice...)
				default:
				}
				if n == len(backlog) {
					break
				}
			}
			s := backlog[n]
			if s.Call.Up != first.Call.Up || s.Completion.submitClock > start {
				break
			}
			n++
		}
		t.cross(backlog[:n], start)
		// Shift the remainder down and drop the stale tail, so the backing
		// array is reused and pins no resolved submission.
		rest := copy(backlog, backlog[n:])
		clear(backlog[rest:])
		backlog = backlog[:rest]
	}
}

// cross performs one physical crossing for a coalesced chunk on the service
// context, stamping queue waits against the service timeline.
func (t *AsyncTransport) cross(chunk []*Submission, start time.Duration) {
	for _, sub := range chunk {
		sub.Completion.queueWait = start - sub.Completion.submitClock
	}
	// Once the chunk's completions are resolved its submissions are out of
	// bounds; the engine hands back what the timeline needs from them — the
	// last completion's instant is start plus the chunk's cost.
	cost, _ := t.r.crossSubmissions(t.ctx, chunk, crossOptions{start: start})
	t.svcFreeAt.Store(int64(start + cost))
	t.finish(len(chunk))
}

// drainOnClose resolves the service backlog and everything still queued
// after Close. Submitters check closed under the lock before sending, and
// Close sets it before signalling quit, so nothing can slip into the ring
// after this sweep empties it.
func (t *AsyncTransport) drainOnClose(backlog []*Submission) {
	resolve := func(subs []*Submission) {
		for _, s := range subs {
			s.Completion.resolve(ErrTransportClosed, false, 0)
		}
		t.finish(len(subs))
	}
	resolve(backlog)
	for {
		select {
		case slice := <-t.ring:
			t.dequeued(len(slice))
			resolve(slice)
		default:
			return
		}
	}
}

// Drain implements Transport: block until every accepted submission has
// completed, then charge ctx the catch-up to the service timeline's last
// completion — the stall a caller pays to synchronize with the decaf side.
func (t *AsyncTransport) Drain(r *Runtime, ctx *kernel.Context) error {
	for {
		t.mu.Lock()
		if t.r == nil || t.pending == 0 {
			t.mu.Unlock()
			break
		}
		idle := t.idle
		t.mu.Unlock()
		<-idle
	}
	// Charge against the caller's runtime, not t.r: t.r is written under
	// the lock by a concurrent first Submit and must not be read here.
	if ctx != nil {
		r.chargeCatchUp(ctx, "xpc-drain", time.Duration(t.svcFreeAt.Load()))
	}
	return nil
}

// Close stops the service goroutine; submissions still queued resolve with
// ErrTransportClosed, as do any submitted later. Close is idempotent.
func (t *AsyncTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	started := t.r != nil
	t.mu.Unlock()
	if started {
		close(t.quit)
		<-t.stopped
	}
	return nil
}

// ServiceContext exposes the decaf-side execution context (nil before the
// first Submit): its Busy/Elapsed report the load the async transport moved
// off the submitting contexts.
func (t *AsyncTransport) ServiceContext() *kernel.Context {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ctx
}
