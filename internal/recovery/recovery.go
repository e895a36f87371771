// Package recovery is the shadow-driver-style recovery subsystem: it turns
// the contained decaf-side faults the XPC layer already produces
// (xpc.UserFault, per-Completion fault outcomes, contained-fault drops in
// FlushPipeline) into transparent driver restarts.
//
// A Supervisor watches one driver's fault outcomes through the runtime's
// fault notifier. On a fault it quiesces the driver, tears down and
// recreates its decaf-side state (the driver's state cells cleared, a fresh
// re-registered PayloadRing with every slot released), replays the driver's
// StateJournal — the log of configuration-establishing crossings (module
// parameters, probe-time hardware programming, interface bring-up, PCM
// configuration) — and resumes. A restart Policy chooses the cadence:
// immediate, exponential backoff, or fail-stop once a restart budget is
// exhausted.
//
// While recovery runs, the kernel-facing surface makes the device look
// slow, not dead: knet.NetDevice holds transmit frames (bounded, with
// explicit accounting) and replays them at resume; the sound driver's PCM
// ops journal their intent and defer. Steady-state cost is zero: journaling
// is kernel-side bookkeeping on configuration paths only, so crossings per
// packet are unchanged when no fault ever fires (decafbench -table recovery
// reports exactly this, next to recovery latency and the held/dropped
// split).
//
// What is not replayed, by design: data-path traffic (held or dropped by
// the proxy, never journaled), statistics, adaptive soft state (coalescing
// EWMAs), and kernel-side registrations that survive the restart (the
// net_device, sound card, IRQ table entries the nucleus owns).
package recovery

import (
	"sync"
	"time"

	"decafdrivers/internal/kernel"
	"decafdrivers/internal/trace"
	"decafdrivers/internal/xpc"
)

// Target is a driver the supervisor can restart. Drivers implement it next
// to their module glue; every method runs in process context (a work item),
// where crossings are legal.
type Target interface {
	// RecoveryName identifies the driver in stats and timer names.
	RecoveryName() string
	// Runtime is the driver's XPC runtime (fault notifier, payload ring).
	Runtime() *xpc.Runtime
	// BeginOutage arms the kernel-facing proxy: from here until
	// ResumeFromRecovery (or FailStop), driver ops queue or drop with
	// accounting instead of crossing to the suspect decaf driver. Called
	// again on a retried restart; must be idempotent.
	BeginOutage(ctx *kernel.Context)
	// TeardownForRecovery quiesces in-flight crossings (dropping faulted
	// flushes and releasing their payload slots) and releases the
	// kernel-side resources a journal replay will rebuild. The decaf side
	// is suspect, so teardown is performed by the nuclear runtime directly
	// — no crossings.
	TeardownForRecovery(ctx *kernel.Context) error
	// ResetDecafState discards the decaf-side half: the state cells the
	// journal replay writes again. The supervisor swaps the payload ring
	// itself.
	ResetDecafState(ctx *kernel.Context) error
	// ResumeFromRecovery disarms the proxy after a successful journal
	// replay, reporting how much held work was replayed vs dropped.
	ResumeFromRecovery(ctx *kernel.Context) (replayed, dropped uint64)
	// FailStop makes the device explicitly dead (carrier off, held work
	// dropped) after the restart policy is exhausted.
	FailStop(ctx *kernel.Context)
}

// State is the supervisor's lifecycle position.
type State int

// Supervisor states.
const (
	// StateMonitoring: the driver is healthy; faults trigger recovery.
	StateMonitoring State = iota
	// StateRecovering: a teardown/restart work item is queued or running.
	StateRecovering
	// StateWaitingRestart: torn down, waiting out the policy's backoff
	// delay before replay.
	StateWaitingRestart
	// StateFailed: fail-stopped; no further recovery.
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateMonitoring:
		return "monitoring"
	case StateRecovering:
		return "recovering"
	case StateWaitingRestart:
		return "waiting-restart"
	default:
		return "failed"
	}
}

// maxConsecutiveReplayFailures hard-bounds back-to-back failed restart
// attempts regardless of policy, so an unbounded Immediate policy against a
// persistently crashing driver fail-stops instead of looping forever inside
// one work-queue drain.
const maxConsecutiveReplayFailures = 8

// Stats snapshots a supervisor's lifetime counters.
type Stats struct {
	// State is the current lifecycle position; Attempts the cumulative
	// restart attempts.
	State    State
	Attempts int
	// Faults counts fault notifications observed; LastFaultCall names the
	// most recent faulted entry point.
	Faults        uint64
	LastFaultCall string
	// Recoveries counts successful restarts; FailedRestarts counts replay
	// attempts that themselves failed; FailStops is 0 or 1.
	Recoveries     uint64
	FailedRestarts uint64
	FailStops      uint64
	// Replayed is the cumulative journal entries replayed.
	Replayed uint64
	// HeldReplayed/HeldDropped total the proxy's held work resolved at
	// resume (frames transmitted vs dropped, deferred ops applied).
	HeldReplayed uint64
	HeldDropped  uint64
	// SlotsReclaimed counts payload-ring slots still in use when the ring
	// was swapped — slots a faulted decaf driver stranded (zero when the
	// teardown quiesce released everything, the correct-driver case).
	SlotsReclaimed uint64
	// LastLatency/TotalLatency measure virtual time from fault detection
	// to resume: teardown and replay work, policy backoff, and the lag
	// until the deferred recovery work ran.
	LastLatency  time.Duration
	TotalLatency time.Duration
}

// Config tunes a Supervisor.
type Config struct {
	// Policy is the restart policy; nil means Immediate{}.
	Policy Policy
}

// Supervisor supervises one driver: it consumes the runtime's fault
// notifications and drives the outage/teardown/replay/resume cycle through
// kernel work items — never on the notifying goroutine, which is inside the
// faulted crossing.
type Supervisor struct {
	kern    *kernel.Kernel
	target  Target
	journal *StateJournal
	policy  Policy
	timer   *kernel.KTimer

	mu              sync.Mutex
	state           State
	attempts        int
	consecutiveFail int
	faultAt         time.Duration
	stats           Stats
}

// NewSupervisor builds a supervisor for one driver. Call Attach to start
// consuming fault notifications.
func NewSupervisor(k *kernel.Kernel, target Target, journal *StateJournal, cfg Config) *Supervisor {
	policy := cfg.Policy
	if policy == nil {
		policy = Immediate{}
	}
	s := &Supervisor{
		kern:    k,
		target:  target,
		journal: journal,
		policy:  policy,
	}
	// The restart timer runs at high priority and so only enqueues the
	// replay work; the work item performs the crossings (§3.1.3).
	s.timer = k.NewTimer("recovery/"+target.RecoveryName(), func(tctx *kernel.Context) {
		s.kern.DeferToWork(s.restartWork)
	})
	return s
}

// Attach installs the supervisor as the runtime's fault notifier.
func (s *Supervisor) Attach() {
	s.target.Runtime().SetFaultNotifier(s.onFault)
}

// Policy returns the restart policy.
func (s *Supervisor) Policy() Policy { return s.policy }

// State reports the current lifecycle position.
func (s *Supervisor) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// InOutage reports whether the device is currently between fault detection
// and resume (or fail-stopped): the window in which the kernel-facing proxy
// holds or drops work.
func (s *Supervisor) InOutage() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state != StateMonitoring
}

// Stats snapshots the supervisor's counters.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.stats
	snap.State = s.state
	snap.Attempts = s.attempts
	return snap
}

// emit records one recovery-timeline event on the supervised runtime's
// flight recorder, when one is installed. id is the restart attempt the
// event belongs to, so the trace exporter can pair teardown/replay/resume
// marks into per-attempt recovery spans.
func (s *Supervisor) emit(k trace.Kind, id, arg uint64) {
	if rec := s.target.Runtime().Tracer(); rec != nil {
		rec.Emit(k, trace.LaneNone, trace.SrcKernel, id, arg)
	}
}

// onFault is the runtime's fault notifier: record, and kick recovery once.
// It runs on whatever goroutine resolved the faulted completion, so it only
// records and defers.
func (s *Supervisor) onFault(ev xpc.FaultEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Faults++
	s.stats.LastFaultCall = ev.Call
	if s.state != StateMonitoring {
		// Already recovering (a later flush can fault before the restart
		// work runs) or fail-stopped.
		return
	}
	s.state = StateRecovering
	s.faultAt = s.kern.Clock().Now()
	s.emit(trace.KindRecFault, uint64(s.attempts+1), s.stats.Faults)
	s.kern.DeferToWork(s.teardownWork)
}

// teardownWork is recovery phase one, in process context: outage on,
// quiesce, discard decaf state, then either restart immediately or arm the
// backoff timer.
func (s *Supervisor) teardownWork(wctx *kernel.Context) {
	base := wctx.Elapsed()
	s.mu.Lock()
	traceAttempt := uint64(s.attempts + 1)
	s.mu.Unlock()
	s.emit(trace.KindRecTeardown, traceAttempt, 0)
	s.target.BeginOutage(wctx)
	_ = s.target.TeardownForRecovery(wctx)
	// A process-separated transport's decaf process died with the fault:
	// respawn it before anything crosses again, so the decaf reset, ring
	// registration and journal replay land on a driver process that was
	// actually restarted.
	if wr, ok := s.target.Runtime().Transport().(xpc.WorkerRespawner); ok {
		_ = wr.RespawnWorker()
		s.emit(trace.KindRecRespawn, traceAttempt, 0)
	}
	_ = s.target.ResetDecafState(wctx)
	s.swapPayloadRing(wctx)

	s.mu.Lock()
	s.attempts++
	attempt := s.attempts
	s.mu.Unlock()

	delay, ok := s.policy.NextDelay(attempt)
	if !ok {
		s.failStop(wctx)
		return
	}
	if delay <= 0 {
		s.restartFrom(wctx, base)
		return
	}
	s.mu.Lock()
	s.state = StateWaitingRestart
	s.mu.Unlock()
	s.timer.Schedule(delay)
}

// swapPayloadRing replaces a registered payload ring with a fresh one of the
// same geometry: every slot released, outstanding descriptors invalidated.
// Slots still in use at swap time were stranded by the faulted decaf side
// and are counted as reclaimed. A failed re-registration is not fatal — the
// driver degrades to the copy path, the designed fallback.
func (s *Supervisor) swapPayloadRing(wctx *kernel.Context) {
	rt := s.target.Runtime()
	old := rt.UnregisterPayloadRing()
	if old == nil {
		return
	}
	s.mu.Lock()
	s.stats.SlotsReclaimed += uint64(old.InUse())
	s.mu.Unlock()
	// NewRing keeps the backing appropriate for the transport: a mapped
	// ring (shared with the respawned worker process) under ProcTransport,
	// heap memory otherwise.
	fresh, err := rt.NewRing(old.Slots(), old.SlotSize())
	if err != nil {
		return
	}
	_ = rt.RegisterPayloadRing(wctx, fresh)
}

// restartWork is recovery phase two as its own work item (the backoff path).
func (s *Supervisor) restartWork(wctx *kernel.Context) {
	s.mu.Lock()
	if s.state == StateFailed {
		s.mu.Unlock()
		return
	}
	s.state = StateRecovering
	s.mu.Unlock()
	s.restartFrom(wctx, wctx.Elapsed())
}

// restartFrom replays the journal and resumes. base is the worker context's
// elapsed reading at the start of the current work item, so the item's own
// virtual cost — not yet reflected in the global clock — lands in the
// recovery-latency measurement.
func (s *Supervisor) restartFrom(wctx *kernel.Context, base time.Duration) {
	s.mu.Lock()
	attempt := uint64(s.attempts)
	s.mu.Unlock()
	s.emit(trace.KindRecReplay, attempt, uint64(s.journal.Len()))
	ran, err := s.journal.Replay(wctx)
	s.mu.Lock()
	s.stats.Replayed += uint64(ran)
	s.mu.Unlock()

	if err != nil {
		// The restarted driver failed to rebuild its configuration (the
		// replay may itself have faulted): count a failed attempt and go
		// back through teardown, unless the policy or the hard cap says
		// fail-stop.
		s.mu.Lock()
		s.stats.FailedRestarts++
		s.consecutiveFail++
		tooMany := s.consecutiveFail >= maxConsecutiveReplayFailures
		s.mu.Unlock()
		if tooMany {
			s.failStop(wctx)
			return
		}
		s.kern.DeferToWork(s.teardownWork)
		return
	}

	replayed, dropped := s.target.ResumeFromRecovery(wctx)
	s.emit(trace.KindRecResume, attempt, uint64(ran))
	s.mu.Lock()
	s.consecutiveFail = 0
	s.state = StateMonitoring
	s.stats.Recoveries++
	s.stats.HeldReplayed += replayed
	s.stats.HeldDropped += dropped
	// Latency approximation on the virtual timeline: clock progress since
	// the fault (wire time and earlier drained work) plus this work item's
	// own not-yet-drained charge. Work items that ran earlier in the same
	// drain are not yet in the clock and are undercounted by their charge —
	// acceptable for a simulation metric.
	lat := (s.kern.Clock().Now() - s.faultAt) + (wctx.Elapsed() - base)
	if lat < 0 {
		lat = 0
	}
	s.stats.LastLatency = lat
	s.stats.TotalLatency += lat
	s.mu.Unlock()
}

// failStop retires the driver: the policy is exhausted (or restarts keep
// failing), so the device goes explicitly dead rather than flapping.
func (s *Supervisor) failStop(wctx *kernel.Context) {
	s.mu.Lock()
	if s.state == StateFailed {
		s.mu.Unlock()
		return
	}
	s.state = StateFailed
	s.stats.FailStops++
	attempt := uint64(s.attempts)
	s.mu.Unlock()
	s.emit(trace.KindRecFailStop, attempt, 0)
	s.timer.Stop()
	s.target.FailStop(wctx)
}
