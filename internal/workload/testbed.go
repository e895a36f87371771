// Package workload builds the Table 3 experiments: testbeds assembling a
// simulated machine around each driver, and the four workloads the paper
// measures — netperf send/receive for the network drivers, MP3 playback for
// the sound driver, tar-to-flash for the USB stack, and move-and-click for
// the mouse — each run in both native and decaf deployments.
package workload

import (
	"sync/atomic"
	"time"

	"decafdrivers/internal/core"
	"decafdrivers/internal/drivers/e1000"
	"decafdrivers/internal/drivers/ens1371"
	"decafdrivers/internal/drivers/psmouse"
	"decafdrivers/internal/drivers/rtl8139"
	"decafdrivers/internal/drivers/uhcihcd"
	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/e1000hw"
	"decafdrivers/internal/hw/es1371hw"
	"decafdrivers/internal/hw/ps2hw"
	"decafdrivers/internal/hw/rtl8139hw"
	"decafdrivers/internal/hw/uhcihw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/kinput"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/ksound"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/kusb"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/trace"
	"decafdrivers/internal/xpc"
)

// Testbed is one booted simulated machine with one driver under test.
type Testbed struct {
	Sys    *core.System
	Clock  *ktime.Clock
	Bus    *hw.Bus
	Kernel *kernel.Kernel
	Mode   xpc.Mode

	// Runtime is the driver's XPC runtime (crossing counters).
	Runtime *xpc.Runtime
	// Load is the insmod report (Table 3 init latency).
	Load kernel.LoadReport
	// Sup is the recovery supervisor, non-nil when NetOptions.Recovery
	// armed shadow-driver supervision for the driver under test.
	Sup *recovery.Supervisor
	// TraceRecorder/TraceCollector are the flight recorder pair, non-nil
	// when NetOptions.Trace armed cross-process tracing. The collector runs
	// from boot; Shutdown stops it, after which TraceEvents returns the
	// complete timeline.
	TraceRecorder  *trace.Recorder
	TraceCollector *trace.Collector

	// Subsystems (populated as needed per driver).
	Net   *knet.Subsystem
	Snd   *ksound.Subsystem
	USB   *kusb.Core
	Input *kinput.Subsystem

	// Driver/device handles (one pair populated per testbed).
	E1000    *e1000.Driver
	E1000Dev *e1000hw.Device
	RTL      *rtl8139.Driver
	RTLDev   *rtl8139hw.Device
	Ens      *ens1371.Driver
	EnsDev   *es1371hw.Device
	Uhci     *uhcihcd.Driver
	UhciDev  *uhcihw.Device
	Flash    *uhcihw.FlashDrive
	Mouse    *ps2hw.Mouse
	Psmouse  *psmouse.Driver
}

func newBase(mode xpc.Mode) *Testbed {
	sys := core.NewSystem(core.Options{})
	return &Testbed{
		Sys:    sys,
		Clock:  sys.Clock,
		Bus:    sys.Bus,
		Kernel: sys.Kernel,
		Net:    sys.Net,
		Snd:    sys.Snd,
		USB:    sys.USB,
		Input:  sys.Input,
		Mode:   mode,
	}
}

func (tb *Testbed) load(m kernel.Module) error {
	rep, err := tb.Kernel.LoadModule(m)
	if err != nil {
		return err
	}
	tb.Load = rep
	return nil
}

// NetOptions tunes a network testbed beyond the deployment mode.
type NetOptions struct {
	// DataPath places the per-packet path: the nucleus (paper's split,
	// default) or the decaf driver (per-packet crossings, the batching
	// study's configuration).
	DataPath xpc.DataPath
	// BatchN > 1 coalesces up to N calls per crossing (BatchTransport, or
	// the async service's coalescing size when Async is set), and sizes
	// the e1000 TX queue to match. <= 1 keeps per-call crossings.
	BatchN int
	// Async installs an AsyncTransport: submissions queue onto a bounded
	// ring serviced by a dedicated decaf-side goroutine, so crossings
	// overlap with packet production instead of stalling the caller.
	Async bool
	// Proc installs a ProcTransport: the decaf side of the boundary is a
	// real forked worker process reached over shared-memory lanes, with
	// payload rings in the same genuinely shared mmap region and fault
	// containment enforced by actual process death. Coalescing follows
	// BatchN. Takes precedence over Async.
	Proc bool
	// QueueDepth bounds the async submission ring; <1 means
	// xpc.DefaultQueueDepth. Ignored unless Async is set.
	QueueDepth int
	// Submitters sizes the proc transport's submission-lane table for the
	// expected number of concurrent submitting contexts: each submitter can
	// then hold its own lock-free lane instead of spilling to the contended
	// fallback lane. <1 means xpc.DefaultProcLanes. Ignored unless Proc is
	// set.
	Submitters int
	// CoalesceWindow overrides the drivers' batch-coalescing windows;
	// harnesses running below line rate widen it so batches still fill.
	// For rtl8139 a zero value selects the adaptive window (EWMA of frame
	// interarrival, clamped to [100µs, 2ms]).
	CoalesceWindow time.Duration
	// ZeroCopy registers a PayloadRing with the transport at boot (one
	// crossing): data-carrying calls then reference ring slots by
	// descriptor instead of marshaling payload bytes — the §4.2 direct
	// transfer. Exhaustion degrades to the copy path.
	ZeroCopy bool
	// RingSlots sizes the payload ring; <1 means xpc.DefaultRingSlots.
	// Ignored unless ZeroCopy is set.
	RingSlots int
	// Recovery arms shadow-driver supervision: a recovery.Supervisor
	// (Testbed.Sup) watches the driver's fault outcomes, journals its
	// configuration crossings, and on a decaf-side fault restarts the
	// driver transparently — the net device holds TX frames during the
	// outage instead of erroring.
	Recovery bool
	// RestartPolicy selects the restart cadence; nil means
	// recovery.Immediate{}. Ignored unless Recovery is set.
	RestartPolicy recovery.Policy
	// TxHoldLimit bounds the net-device proxy's held-frame queue during an
	// outage; <=0 selects the driver default. Ignored unless Recovery is
	// set.
	TxHoldLimit int
	// Trace arms the cross-process flight recorder: shm trace rings are
	// carved in the transport's shared region, a Recorder is installed
	// before the transport (so the first epoch's FrameTraceRing handshake
	// hands the worker its ring), and a Collector drains the merged
	// timeline for export. Ignored unless Proc is set.
	Trace bool
	// TraceEntries sizes each shm trace ring; <1 means the transport
	// default. Ignored unless Trace is set.
	TraceEntries int
	// Faults arms the decaf-side fault injector after boot (boot crossings
	// never count toward Nth).
	Faults FaultPlan
}

// FaultPlan arms the XPC fault injector: the decaf side panics — inside the
// fault-containment region, exactly like a real crash — on the Nth call
// matching Call ("" matches any decaf-side call). With Repeat, every
// matching call from the Nth on faults, modeling a persistently broken
// driver (the fail-stop scenario). Nth == 0 disables injection.
type FaultPlan struct {
	Call   string
	Nth    uint64
	Repeat bool
}

// Injector builds the counting matcher installed via
// xpc.Runtime.SetFaultInjector. Safe for concurrent use.
func (p FaultPlan) Injector() func(call string) bool {
	var n atomic.Uint64
	return func(call string) bool {
		if p.Nth == 0 {
			return false
		}
		if p.Call != "" && call != p.Call {
			return false
		}
		c := n.Add(1)
		if p.Repeat {
			return c >= p.Nth
		}
		return c == p.Nth
	}
}

func (o NetOptions) transport() (xpc.Transport, error) {
	if o.Proc {
		entries := 0
		if o.Trace {
			entries = o.TraceEntries
			if entries < 1 {
				entries = -1 // transport default ring depth
			}
		}
		return xpc.NewProcTransport(xpc.ProcConfig{Batch: o.BatchN, Lanes: o.Submitters, TraceEntries: entries})
	}
	if o.Async {
		return xpc.NewAsyncTransport(xpc.AsyncConfig{Depth: o.QueueDepth, Batch: o.BatchN}), nil
	}
	if o.BatchN > 1 {
		return xpc.BatchTransport{N: o.BatchN}, nil
	}
	return nil, nil
}

// installTransport selects and installs the testbed's transport. When Trace
// is armed the recorder installs first: the proc transport's first epoch
// checks for it when deciding whether to hand the worker its trace ring.
func (o NetOptions) installTransport(tb *Testbed) error {
	tr, err := o.transport()
	if err != nil {
		return err
	}
	if o.Trace && o.Proc {
		tb.TraceRecorder = trace.NewRecorder(0)
		tb.Runtime.SetTracer(tb.TraceRecorder)
		tb.TraceCollector = trace.NewCollector(tb.TraceRecorder, 0)
		tb.TraceCollector.Start()
	}
	tb.Runtime.SetTransport(tr)
	return nil
}

// registerRing performs the one-time payload-ring registration when
// ZeroCopy is requested: the runtime-init crossing after which
// data-carrying calls reference ring slots. The ring's backing follows the
// transport: shared mmap memory under a ProcTransport, heap otherwise.
func (o NetOptions) registerRing(tb *Testbed) error {
	if !o.ZeroCopy {
		return nil
	}
	ring, err := tb.Runtime.NewRing(o.RingSlots, xpc.DefaultRingSlotSize)
	if err != nil {
		return err
	}
	return tb.Runtime.RegisterPayloadRing(tb.Kernel.NewContext("ring-init"), ring)
}

// armSupervision finishes the recovery/fault wiring after boot: the
// supervisor attaches to the runtime's fault notifier and the fault
// injector arms (so initialization crossings never consume an injection
// count).
func (o NetOptions) armSupervision(tb *Testbed, target recovery.Target, journal *recovery.StateJournal) {
	if o.Recovery {
		tb.Sup = recovery.NewSupervisor(tb.Kernel, target, journal, recovery.Config{Policy: o.RestartPolicy})
		tb.Sup.Attach()
	}
	if o.Faults.Nth > 0 {
		tb.Runtime.SetFaultInjector(o.Faults.Injector())
	}
}

// NewE1000 boots a machine with an E1000 adapter, loads the driver and
// brings the interface up.
func NewE1000(mode xpc.Mode) (*Testbed, error) {
	return NewE1000With(mode, NetOptions{})
}

// NewE1000With boots an E1000 machine with data-path and transport options.
func NewE1000With(mode xpc.Mode, opts NetOptions) (*Testbed, error) {
	tb := newBase(mode)
	tb.E1000Dev = e1000hw.New(tb.Bus, 9, [6]byte{0x00, 0x1B, 0x21, 0xAA, 0xBB, 0xCC})
	tb.E1000Dev.SetLink(true)
	// Interrupt throttling, as the real driver programs via ITR: without
	// it, per-packet interrupts dominate CPU at gigabit rates.
	tb.E1000Dev.SetIntrBatch(16)
	tb.E1000 = e1000.New(tb.Kernel, tb.Net, tb.E1000Dev, e1000.Config{
		Mode: mode, IRQ: 9,
		DataPath: opts.DataPath, TxQueueDepth: opts.BatchN,
		TxCoalesceWindow: opts.CoalesceWindow,
	})
	tb.Runtime = tb.E1000.Runtime()
	if err := opts.installTransport(tb); err != nil {
		return nil, err
	}
	if err := opts.registerRing(tb); err != nil {
		return nil, err
	}
	var journal *recovery.StateJournal
	if opts.Recovery {
		journal = recovery.NewStateJournal()
		tb.E1000.EnableRecovery(journal, opts.TxHoldLimit)
	}
	if err := tb.load(tb.E1000.Module()); err != nil {
		return nil, err
	}
	ctx := tb.Kernel.NewContext("ifup")
	if err := tb.E1000.NetDevice().Up(ctx); err != nil {
		return nil, err
	}
	// Initialization crossings were synchronous (waited-for); advance the
	// clock past them so a following measurement phase starts with the
	// async service timeline and the clock in step.
	tb.Clock.AdvanceTo(tb.Runtime.WaitFrontier())
	opts.armSupervision(tb, tb.E1000, journal)
	return tb, nil
}

// NewRTL8139 boots a machine with an RTL-8139.
func NewRTL8139(mode xpc.Mode) (*Testbed, error) {
	return NewRTL8139With(mode, NetOptions{})
}

// NewRTL8139With boots an RTL-8139 machine with data-path and transport
// options.
func NewRTL8139With(mode xpc.Mode, opts NetOptions) (*Testbed, error) {
	tb := newBase(mode)
	tb.RTLDev = rtl8139hw.New(tb.Bus, 11, 0xC000, [6]byte{0x00, 0xE0, 0x4C, 0x39, 0x13, 0x9A})
	tb.RTL = rtl8139.New(tb.Kernel, tb.Net, tb.RTLDev, 0xC000, rtl8139.Config{
		Mode: mode, IRQ: 11, DataPath: opts.DataPath,
		RxCoalesceWindow: opts.CoalesceWindow,
	})
	tb.Runtime = tb.RTL.Runtime()
	if err := opts.installTransport(tb); err != nil {
		return nil, err
	}
	if err := opts.registerRing(tb); err != nil {
		return nil, err
	}
	var journal *recovery.StateJournal
	if opts.Recovery {
		journal = recovery.NewStateJournal()
		tb.RTL.EnableRecovery(journal, opts.TxHoldLimit)
	}
	if err := tb.load(tb.RTL.Module()); err != nil {
		return nil, err
	}
	ctx := tb.Kernel.NewContext("ifup")
	if err := tb.RTL.NetDevice().Up(ctx); err != nil {
		return nil, err
	}
	tb.Clock.AdvanceTo(tb.Runtime.WaitFrontier())
	opts.armSupervision(tb, tb.RTL, journal)
	return tb, nil
}

// NewEns1371 boots a machine with an ES1371 sound card.
func NewEns1371(mode xpc.Mode) (*Testbed, error) {
	tb := newBase(mode)
	tb.EnsDev = es1371hw.New(tb.Bus, 5, 0xD000)
	tb.Ens = ens1371.New(tb.Kernel, tb.Snd, tb.EnsDev, 0xD000, ens1371.Config{Mode: mode, IRQ: 5})
	tb.Runtime = tb.Ens.Runtime()
	if err := tb.load(tb.Ens.Module()); err != nil {
		return nil, err
	}
	return tb, nil
}

// NewUhci boots a machine with a UHCI controller and an attached flash
// drive.
func NewUhci(mode xpc.Mode) (*Testbed, error) {
	tb := newBase(mode)
	tb.UhciDev = uhcihw.New(tb.Bus, 10, 0xE000)
	tb.Flash = &uhcihw.FlashDrive{}
	tb.UhciDev.AttachPeripheral(0, tb.Flash)
	tb.Uhci = uhcihcd.New(tb.Kernel, tb.USB, tb.UhciDev, 0xE000, uhcihcd.Config{Mode: mode, IRQ: 10})
	tb.Runtime = tb.Uhci.Runtime()
	if err := tb.load(tb.Uhci.Module()); err != nil {
		return nil, err
	}
	return tb, nil
}

// NewPsmouse boots a machine with a PS/2 mouse.
func NewPsmouse(mode xpc.Mode) (*Testbed, error) {
	tb := newBase(mode)
	port := kinput.NewSerioPort()
	tb.Mouse = ps2hw.New(port, tb.Bus.IRQ(12))
	tb.Psmouse = psmouse.New(tb.Kernel, tb.Input, port, psmouse.Config{Mode: mode, IRQ: 12})
	tb.Runtime = tb.Psmouse.Runtime()
	if err := tb.load(tb.Psmouse.Module()); err != nil {
		return nil, err
	}
	return tb, nil
}

// InitCrossings reports the user/kernel crossings accumulated so far
// (called right after boot = the Table 3 initialization column).
func (tb *Testbed) InitCrossings() uint64 {
	return tb.Runtime.Counters().Trips()
}

// drainDeferredWork drains the kernel work queue and advances virtual time
// by the stall the deferred work imposed on the machine (the decaf watchdog
// runs here; its XPC wait shows up as elapsed time).
func (tb *Testbed) drainDeferredWork() {
	tb.Sys.DrainDeferredWork()
}

// InRecovery reports whether the driver under test is between fault
// detection and resume (or fail-stopped): the outage window in which the
// kernel-facing proxy holds or drops work.
func (tb *Testbed) InRecovery() bool {
	return tb.Sup != nil && tb.Sup.InOutage()
}

// settleRecovery completes an in-flight recovery before the testbed
// quiesces: a backoff restart waits on a kernel timer, so the clock advances
// to pending deadlines and the deferred restart work drains. A fail-stopped
// driver stays down.
func (tb *Testbed) settleRecovery() {
	for i := 0; i < 64; i++ {
		if tb.Sup == nil || !tb.Sup.InOutage() || tb.Sup.State() == recovery.StateFailed {
			return
		}
		dl, ok := tb.Clock.NextDeadline()
		if !ok {
			return
		}
		tb.Clock.AdvanceTo(dl)
		tb.drainDeferredWork()
	}
}

// Settle quiesces the testbed's crossing pipelines: deferred work drains,
// any in-flight recovery completes (or fail-stops), the drivers reap their
// in-flight async flushes, and the transport's queue empties, charging ctx
// any residual catch-up stall. Workloads call it before closing a
// measurement phase so crossing counters and deliveries are complete; under
// inline transports it is a no-op beyond the work-queue drain.
func (tb *Testbed) Settle(ctx *kernel.Context) {
	tb.drainDeferredWork()
	tb.settleRecovery()
	if tb.E1000 != nil {
		_ = tb.E1000.Quiesce(ctx)
	}
	if tb.RTL != nil {
		_ = tb.RTL.Quiesce(ctx)
	}
	tb.drainDeferredWork()
	if tb.Runtime != nil {
		_ = tb.Runtime.DrainCrossings(ctx)
	}
}

// Shutdown settles the testbed and releases transport resources (an
// AsyncTransport's service goroutine). Benchmarks call it when a testbed is
// no longer needed.
func (tb *Testbed) Shutdown() {
	ctx := tb.Kernel.NewContext("shutdown")
	tb.Settle(ctx)
	if tb.TraceCollector != nil {
		tb.TraceCollector.Stop()
	}
	if tb.Runtime != nil {
		tb.Runtime.SetTransport(nil)
	}
}

// Phase measures one workload phase: busy CPU time and crossings are
// deltas over the phase, utilization is busy/elapsed.
type Phase struct {
	tb        *Testbed
	startBusy time.Duration
	startTime time.Duration
	startX    uint64
}

// StartPhase begins measurement.
func (tb *Testbed) StartPhase() *Phase {
	return &Phase{
		tb:        tb,
		startBusy: tb.Kernel.Accounting().Busy(),
		startTime: tb.Clock.Now(),
		startX:    tb.Runtime.Counters().Trips(),
	}
}

// End closes the phase, returning elapsed virtual time, CPU utilization
// and crossings.
func (p *Phase) End() (elapsed time.Duration, cpuUtil float64, crossings uint64) {
	elapsed = p.tb.Clock.Now() - p.startTime
	busy := p.tb.Kernel.Accounting().Busy() - p.startBusy
	if elapsed > 0 {
		cpuUtil = float64(busy) / float64(elapsed)
	}
	crossings = p.tb.Runtime.Counters().Trips() - p.startX
	return elapsed, cpuUtil, crossings
}
