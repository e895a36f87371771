package e1000

import (
	"errors"
	"fmt"
	"time"

	"decafdrivers/internal/decaf"
	"decafdrivers/internal/hw/e1000hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/xpc"
)

// WatchdogPeriod is the E1000 watchdog interval: "a watchdog timer that
// executes every two seconds" (§3.1.3).
const WatchdogPeriod = 2 * time.Second

// flight is one in-flight decaf-data-path flush: the frames it carried and
// the staged payloads (ring slots or copy fallbacks) they crossed in.
type flight = xpc.Flight[*knet.Packet]

// Driver is one bound E1000 instance: nucleus + decaf driver + XPC runtime.
type Driver struct {
	kern    *kernel.Kernel
	net     *knet.Subsystem
	dev     *e1000hw.Device
	rt      *xpc.Runtime
	helpers *decaf.Helpers
	irq     int
	opts    map[string]int

	// dataPath places the per-packet path: nucleus (default) or decaf.
	dataPath xpc.DataPath
	// txQueue holds frames awaiting submission through the decaf driver
	// when the data path is in the decaf driver; txDepth bounds it, and
	// the coalescing timer flushes a partial queue when traffic pauses. A
	// flush empties it in place, so it keeps its backing array.
	txQueue       []*knet.Packet
	txDepth       int
	txWindow      time.Duration
	txTimer       *kernel.KTimer
	txFlushArmed  bool
	txFlushQueued bool
	txFlushWork   kernel.WorkFunc // the one deferred-flush body, bound once
	// txInFlight/rxInFlight hold flushes submitted through FlushAsync
	// whose frames await the decaf-side completion (nucleus transmit for
	// TX, stack delivery for RX); under an async transport they overlap
	// packet production with crossing execution. Each flight carries the
	// payload-ring slots its frames crossed in; the slots recycle when the
	// flush settles (slot lifetime = completion lifetime).
	txInFlight xpc.FlushPipeline[flight]
	rxInFlight xpc.FlushPipeline[flight]
	// flights recycles the item and payload lists of settled flushes, TX
	// and RX alike.
	flights xpc.FlightPool[*knet.Packet]

	// Adapter is the kernel-side shared structure; DecafAdapter is the
	// user-side copy (the same object in native mode).
	Adapter      *Adapter
	DecafAdapter *Adapter

	nuc    *nucleus
	dcf    *decafDriver
	netdev *knet.NetDevice

	watchdog *kernel.KTimer

	// Recovery supervision state (EnableRecovery): journal records the
	// configuration-establishing crossings a restart replays; recovering
	// gates the watchdog and marks the outage window; holdLimit bounds the
	// net-device proxy's held-frame queue.
	journal    *recovery.StateJournal
	recovering bool
	holdLimit  int
}

// Config configures a driver instance.
type Config struct {
	// Mode selects native (kernel-only) or decaf (split) deployment.
	Mode xpc.Mode
	// IRQ is the device's interrupt number.
	IRQ int
	// ModuleParams are the insmod options validated by the decaf driver.
	ModuleParams map[string]int
	// DataPath places the per-packet path; DataPathNucleus (the paper's
	// split) is the default. DataPathDecaf routes each frame through the
	// decaf driver, submitting TX frames and RX drains as batches through
	// the runtime's transport.
	DataPath xpc.DataPath
	// TxQueueDepth is how many TX frames accumulate before a decaf
	// data-path driver flushes them in one batch; <=1 flushes per frame.
	TxQueueDepth int
	// TxCoalesceWindow bounds how long a queued TX frame may wait for its
	// batch to fill; 0 means the 2 ms default. Harnesses running at low
	// offered loads widen it so batches still fill.
	TxCoalesceWindow time.Duration
}

// New binds the driver to a device model. Call Module().Init via
// kernel.LoadModule to probe and register the interface.
func New(k *kernel.Kernel, net *knet.Subsystem, dev *e1000hw.Device, cfg Config) *Driver {
	d := &Driver{
		kern:     k,
		net:      net,
		dev:      dev,
		irq:      cfg.IRQ,
		opts:     cfg.ModuleParams,
		dataPath: cfg.DataPath,
		txDepth:  cfg.TxQueueDepth,
		txWindow: cfg.TxCoalesceWindow,
	}
	if d.txDepth < 1 {
		d.txDepth = 1
	}
	if d.txWindow <= 0 {
		d.txWindow = txCoalesceWindow
	}
	// The TX coalescing timer runs at high priority and so only enqueues
	// the flush work; the work item performs the batched crossing (§3.1.3).
	d.txTimer = k.NewTimer("e1000_tx_coalesce", func(tctx *kernel.Context) {
		d.txFlushArmed = false
		if len(d.txQueue) > 0 {
			d.scheduleTxFlush()
		}
	})
	d.txFlushWork = func(wctx *kernel.Context) {
		d.txFlushQueued = false
		_ = d.FlushTx(wctx)
	}
	d.rt = xpc.NewRuntime(k, "e1000", cfg.Mode, FieldMask())
	d.rt.DisableIRQs = []int{cfg.IRQ}
	d.helpers = decaf.NewHelpers(d.rt, k.Bus())
	d.Adapter = &Adapter{MsgEnable: 3, Mtu: 1500, TxRingSize: DefaultTxRing, RxRingSize: DefaultRxRing}
	if cfg.Mode == xpc.ModeNative {
		// Native: one copy of every structure, as in an unsplit driver.
		d.DecafAdapter = d.Adapter
	} else {
		d.DecafAdapter = &Adapter{}
		if _, err := d.rt.Share(d.Adapter, d.DecafAdapter); err != nil {
			panic(fmt.Sprintf("e1000: share adapter: %v", err))
		}
	}
	d.nuc = newNucleus(d)
	d.dcf = newDecafDriver(d)
	d.registerDowncalls()
	return d
}

// Runtime exposes the XPC runtime (crossing counters for the harness).
func (d *Driver) Runtime() *xpc.Runtime { return d.rt }

// NetDevice returns the registered interface (after module init).
func (d *Driver) NetDevice() *knet.NetDevice { return d.netdev }

// Module adapts the driver to the kernel module loader.
func (d *Driver) Module() kernel.Module { return (*e1000Module)(d) }

type e1000Module Driver

// ModuleName implements kernel.Module.
func (m *e1000Module) ModuleName() string { return "e1000" }

// Init is insmod: probe the device through the decaf driver, register the
// interface, arm the watchdog.
func (m *e1000Module) Init(ctx *kernel.Context) error {
	d := (*Driver)(m)
	d.dev.PCI.EnableBusMaster()

	err := d.rt.Upcall(ctx, "e1000_probe", func(uctx *kernel.Context) error {
		return decaf.ToError(decaf.Try(func() { d.dcf.probe(uctx, d.opts) }))
	}, d.Adapter)
	if err != nil {
		return fmt.Errorf("e1000: probe: %w", err)
	}

	// The probe proposes "eth0"; the network core assigns the first free
	// ethN, as register_netdev does.
	d.Adapter.Name = d.net.FreeName("eth")
	nd, err := d.net.Register(d.Adapter.Name, int(d.Adapter.Mtu), (*e1000Ops)(d))
	if err != nil {
		return fmt.Errorf("e1000: register_netdev: %w", err)
	}
	nd.MAC = d.Adapter.MAC
	d.netdev = nd
	d.journalProbe()

	// The watchdog runs from a kernel timer; timers execute at high
	// priority, so the timer body only enqueues a work item, and the work
	// item performs the XPC to the decaf driver.
	d.watchdog = d.kern.NewTimer("e1000_watchdog", func(tctx *kernel.Context) {
		d.scheduleWatchdogWork()
	})
	d.watchdog.SchedulePeriodic(WatchdogPeriod)
	return nil
}

// Exit is rmmod.
func (m *e1000Module) Exit(ctx *kernel.Context) {
	d := (*Driver)(m)
	if d.watchdog != nil {
		d.watchdog.Stop()
	}
	if d.netdev != nil && d.netdev.IsUp() {
		_ = d.netdev.Down(ctx)
	}
	if d.netdev != nil {
		_ = d.net.Unregister(d.netdev.Name)
	}
	if d.rt.Mode == xpc.ModeDecaf {
		d.rt.Unshare(d.Adapter)
	}
}

func (d *Driver) scheduleWatchdogWork() {
	// During a recovery outage the decaf driver is suspect (or mid-rebuild):
	// the watchdog skips its upcall and resumes on the next period.
	if d.recovering {
		return
	}
	d.kern.DeferToWork(func(wctx *kernel.Context) {
		if d.recovering {
			return
		}
		_ = d.rt.UpcallHandler(wctx, "e1000_watchdog")
	})
}

// e1000Ops implements knet.DeviceOps: the kernel-facing entry points. Open
// and Stop forward to the decaf driver through kernel-side stubs; StartXmit
// stays in the nucleus (critical root).
type e1000Ops Driver

// Open implements knet.DeviceOps by upcalling e1000_open. During a recovery
// outage the decaf driver is suspect or mid-rebuild, so control-plane ops
// refuse (EBUSY-style) rather than crossing — only the supervisor's journal
// replay touches the decaf side until resume.
func (o *e1000Ops) Open(ctx *kernel.Context) error {
	d := (*Driver)(o)
	if d.recovering {
		return fmt.Errorf("e1000: open while the driver is recovering")
	}
	err := d.rt.Upcall(ctx, "e1000_open", func(uctx *kernel.Context) error {
		return decaf.ToError(decaf.Try(func() { d.dcf.open(uctx) }))
	}, d.Adapter)
	if err != nil {
		return err
	}
	// Immediate link evaluation, as the C driver does after e1000_up. The
	// shared cell mirrors the kernel-side transition so the watchdog body
	// (which may run in another process) compares against current state.
	if d.dev.LinkUp() {
		d.Adapter.LinkUp = true
		d.setLinkCell(true)
		d.netdev.CarrierOn()
	}
	d.journalOpen()
	return nil
}

// Stop implements knet.DeviceOps by upcalling e1000_close. Queued TX frames
// flush and transmit first so none are stranded behind the teardown, while
// in-flight RX flushes settle and drop — frames are not delivered into a
// closing interface, matching the rtl8139 purge-on-stop semantics.
func (o *e1000Ops) Stop(ctx *kernel.Context) error {
	d := (*Driver)(o)
	if d.recovering {
		return fmt.Errorf("e1000: stop while the driver is recovering")
	}
	d.txTimer.Stop()
	d.txFlushArmed = false
	_ = d.rxInFlight.Drain(ctx, func(f flight) {
		d.dropRxFrames(f, nil)
	}, d.dropRxFrames)
	_ = d.Quiesce(ctx)
	if d.journal != nil {
		d.journal.Remove("ifup")
	}
	return d.rt.Upcall(ctx, "e1000_close", func(uctx *kernel.Context) error {
		return decaf.ToError(decaf.Try(func() { d.dcf.close(uctx) }))
	}, d.Adapter)
}

// StartXmit implements knet.DeviceOps. In the default nucleus data path the
// frame never crosses to user level; in the decaf data path it queues for a
// batched crossing through the decaf driver.
func (o *e1000Ops) StartXmit(ctx *kernel.Context, pkt *knet.Packet) error {
	d := (*Driver)(o)
	if d.decafDataPath() {
		return d.xmitViaDecaf(ctx, pkt)
	}
	return d.nuc.xmitFrame(ctx, pkt)
}

func (d *Driver) decafDataPath() bool {
	return d.dataPath == xpc.DataPathDecaf && d.rt.Mode == xpc.ModeDecaf
}

// txCoalesceWindow bounds how long a queued TX frame may wait for its batch
// to fill before the coalescing timer flushes the queue, so a traffic pause
// never strands frames below TxQueueDepth.
const txCoalesceWindow = 2 * time.Millisecond

// xmitViaDecaf queues the frame on the TX batch; once TxQueueDepth frames
// accumulate (or the coalescing window closes) they cross to the decaf
// driver in one flush. Under a batched transport that flush is a single
// crossing for the whole queue.
func (d *Driver) xmitViaDecaf(ctx *kernel.Context, pkt *knet.Packet) error {
	d.txQueue = append(d.txQueue, pkt)
	if len(d.txQueue) >= d.txDepth {
		return d.FlushTx(ctx)
	}
	if !d.txFlushArmed && !d.txFlushQueued {
		d.txFlushArmed = true
		d.txTimer.Schedule(d.txWindow)
	}
	return nil
}

// scheduleTxFlush queues the TX flush in process context. At most one flush
// is in flight at a time.
func (d *Driver) scheduleTxFlush() {
	if d.txFlushQueued {
		return
	}
	d.txFlushQueued = true
	d.kern.DeferToWork(d.txFlushWork)
}

// maxTxInFlight bounds how many submitted-but-unreaped flushes may overlap
// under an async transport before the caller blocks on the oldest.
const maxTxInFlight = 4

// FlushTx submits every queued TX frame through the decaf driver via
// FlushAsync, then reaps every in-flight flush whose crossing has (virtually)
// completed and hands its frames to the nucleus for transmission. Under an
// inline transport the flush settles during submission, so frames reach the
// hardware in the same call — the seed behavior; under an async transport
// the caller keeps producing while the decaf side drains the crossing, and
// frames follow one reap behind. A no-op outside the decaf data path.
func (d *Driver) FlushTx(ctx *kernel.Context) error {
	if len(d.txQueue) > 0 {
		// The flush consumes any armed coalescing timer: it should fire
		// only when a partial queue goes stale, not mid-stream between
		// full batches.
		if d.txFlushArmed {
			d.txTimer.Stop()
			d.txFlushArmed = false
		}
		// Staging a frame lands its bytes in a pre-registered ring buffer,
		// the model of DMA into shared memory.
		fl := d.flights.Get()
		for _, pkt := range d.txQueue {
			fl.Stage(d.rt, pkt, pkt.Data)
		}
		clear(d.txQueue)
		d.txQueue = d.txQueue[:0]
		b := d.rt.Batch(ctx)
		for _, p := range fl.Payloads {
			b.UpcallHandlerPayload("e1000_xmit_frame", p)
		}
		d.txInFlight.Push(b.FlushAsync(), fl)
	}
	return d.absorbContainedFault(d.reapTx(ctx, d.txInFlight.Len() >= maxTxInFlight))
}

// absorbContainedFault maps a fault-contained flush outcome to success when
// a recovery supervisor is attached: the flush's frames were already dropped
// with accounting, the supervisor owns the restart, and the shadow-driver
// contract is that kernel callers see a slow device, never a decaf crash.
// Without supervision (or for ordinary errors) the outcome propagates as
// before.
func (d *Driver) absorbContainedFault(err error) error {
	if err == nil || d.journal == nil {
		return err
	}
	if xpc.IsUserFault(err) || errors.Is(err, xpc.ErrCrossingAborted) {
		return nil
	}
	return err
}

// txCallbacks builds the TX pipeline's deliver/drop pair: successful
// flushes hand their frames to the nucleus (the first transmit error lands
// in *errp), failed or faulted flushes drop theirs into TxErrors — the
// kernel survives. Both arms hand the flight back to the pool, which
// recycles its payload slots: the flush has settled, so slot lifetime ends
// here.
func (d *Driver) txCallbacks(ctx *kernel.Context, errp *error) (deliver func(flight), drop func(flight, error)) {
	deliver = func(f flight) {
		for _, pkt := range f.Items {
			if xerr := d.nuc.xmitFrame(ctx, pkt); xerr != nil && *errp == nil {
				*errp = xerr
			}
		}
		d.flights.Release(d.rt, f)
	}
	drop = func(f flight, _ error) {
		d.Adapter.Stats.TxErrors += uint64(len(f.Items))
		d.flights.Release(d.rt, f)
	}
	return deliver, drop
}

// deliverRxFrames/dropRxFrames are the RX pipeline's deliver/drop pair;
// both hand the flight back to the pool.
func (d *Driver) deliverRxFrames(f flight) {
	for _, pkt := range f.Items {
		d.netdev.Receive(pkt)
	}
	d.flights.Release(d.rt, f)
}

func (d *Driver) dropRxFrames(f flight, _ error) {
	d.Adapter.Stats.RxDropped += uint64(len(f.Items))
	d.flights.Release(d.rt, f)
}

// reapTx transmits the frames of every settled in-flight flush; with force,
// it first waits for the oldest flush (charging the caller any residual
// stall) so the pipeline depth stays bounded.
func (d *Driver) reapTx(ctx *kernel.Context, force bool) error {
	var xmitErr error
	deliver, drop := d.txCallbacks(ctx, &xmitErr)
	err := d.txInFlight.Reap(ctx, d.kern.Clock().Now(), force, deliver, drop)
	if err == nil {
		err = xmitErr
	}
	return err
}

// Quiesce flushes the partial TX queue and waits for every in-flight decaf
// crossing, transmitting reaped TX frames and delivering reaped RX frames.
// Workload harnesses call it before closing a measurement phase so async
// completions are settled.
func (d *Driver) Quiesce(ctx *kernel.Context) error {
	err := d.FlushTx(ctx)
	var xmitErr error
	deliver, drop := d.txCallbacks(ctx, &xmitErr)
	if derr := d.txInFlight.Drain(ctx, deliver, drop); err == nil {
		if derr == nil {
			derr = xmitErr
		}
		err = derr
	}
	_ = d.rxInFlight.Drain(ctx, d.deliverRxFrames, d.dropRxFrames)
	if derr := d.rt.DrainCrossings(ctx); derr != nil && err == nil {
		err = derr
	}
	return err
}

// deliverRx hands one interrupt's burst of drained RX frames up the stack.
// In the decaf data path the crossing cannot happen in IRQ context, so a
// work item submits the batched upcalls — the work-queue handoff of §3.1.3
// applied to the receive path — and delivery follows each flush's
// completion: inline transports settle during submission (delivery in the
// same work item, the seed behavior), async transports overlap the crossing
// with further interrupt drains.
func (d *Driver) deliverRx(burst []knet.Packet) {
	if len(burst) == 0 {
		return
	}
	if !d.decafDataPath() {
		for i := range burst {
			d.netdev.Receive(&burst[i])
		}
		return
	}
	d.kern.DeferToWork(func(wctx *kernel.Context) {
		fl := d.flights.Get()
		for i := range burst {
			fl.Stage(d.rt, &burst[i], burst[i].Data)
		}
		b := d.rt.Batch(wctx)
		for _, p := range fl.Payloads {
			b.UpcallHandlerPayload("e1000_rx_frame", p)
		}
		d.rxInFlight.Push(b.FlushAsync(), fl)
		d.reapRx(wctx, d.rxInFlight.Len() >= maxRxInFlight)
	})
}

// maxRxInFlight bounds the RX pipeline depth under an async transport.
const maxRxInFlight = 4

// reapRx delivers the frames of every settled in-flight RX flush; with
// force, it first waits for the oldest. A faulted decaf driver drops its
// own drain; the kernel survives.
func (d *Driver) reapRx(ctx *kernel.Context, force bool) {
	_ = d.rxInFlight.Reap(ctx, d.kern.Clock().Now(), force, d.deliverRxFrames, d.dropRxFrames)
}
