package e1000

import (
	"errors"
	"fmt"
	"time"

	"decafdrivers/internal/hw/e1000hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/xpc"
)

// WatchdogPeriod is the E1000 watchdog interval: "a watchdog timer that
// executes every two seconds" (§3.1.3).
const WatchdogPeriod = 2 * time.Second

// Driver is one bound E1000 instance: the nucleus, the kernel side of the
// decaf driver's handler calls, and the XPC runtime.
type Driver struct {
	kern *kernel.Kernel
	net  *knet.Subsystem
	dev  *e1000hw.Device
	rt   *xpc.Runtime
	irq  int
	opts map[string]int

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
	// txFlight/rxFlight carry one flush each: the frames and the
	// payload-ring slots they crossed in. A flush has crossed when Flush
	// returns, so the path delivers or drops its frames and releases the
	// slots on the spot (slot lifetime = completion lifetime), and the next
	// flush reuses the flight's lists.
	txFlight, rxFlight xpc.Flight[*knet.Packet]

	// Adapter is the driver's one adapter structure, kept kernel-side:
	// the decaf bodies send what they learn back as downcall arguments
	// and state cells, and the kernel records it here.
	Adapter *Adapter
	// DecafAdapter is a user-side copy the driver itself never reads or
	// writes. A harness that measures the object-sync layer allocates it
	// and shares it with Adapter on the driver's runtime.
	DecafAdapter *Adapter

	nuc    *nucleus
	netdev *knet.NetDevice

	watchdog *kernel.KTimer

	// Recovery supervision state (EnableRecovery): journal records the
	// configuration-establishing crossings a restart replays; recovering
	// gates the watchdog and marks the outage window.
	journal    *recovery.StateJournal
	recovering bool
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
	d.Adapter = &Adapter{MsgEnable: 3, Mtu: 1500, TxRingSize: DefaultTxRing, RxRingSize: DefaultRxRing}
	d.nuc = newNucleus(d)
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

	if err := d.probe(ctx); err != nil {
		return fmt.Errorf("e1000: probe: %w", err)
	}

	// The network core assigns the first free ethN, as register_netdev
	// does.
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
		_ = d.rt.Call(wctx, hWatchdog)
	})
}

// e1000Ops implements knet.DeviceOps: the kernel-facing entry points. Open
// and Stop cross to the decaf driver's handler bodies; StartXmit stays in
// the nucleus (critical root).
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
	if err := d.open(ctx); err != nil {
		return err
	}
	d.journalOpen()
	return nil
}

// Stop implements knet.DeviceOps by upcalling e1000_close. Queued TX frames
// flush and transmit first so none are stranded behind the teardown. A
// close body that did not finish leaves the release to the kernel side.
func (o *e1000Ops) Stop(ctx *kernel.Context) error {
	d := (*Driver)(o)
	if d.recovering {
		return fmt.Errorf("e1000: stop while the driver is recovering")
	}
	d.txTimer.Stop()
	d.txFlushArmed = false
	_ = d.FlushTx(ctx)
	if d.journal != nil {
		d.journal.Remove("ifup")
	}
	err := d.rt.Call(ctx, hClose)
	if err != nil {
		d.nuc.release(ctx)
	}
	return err
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

// FlushTx submits every queued TX frame through the decaf driver and hands
// the frames to the nucleus for transmission once the flush returns; a
// failed or faulted flush drops its frames into TxErrors — the kernel
// survives. Frames reach the hardware in the same call. A no-op outside the
// decaf data path, or with nothing queued.
func (d *Driver) FlushTx(ctx *kernel.Context) error {
	if len(d.txQueue) == 0 {
		return nil
	}
	// The flush consumes any armed coalescing timer: it should fire only
	// when a partial queue goes stale, not mid-stream between full batches.
	if d.txFlushArmed {
		d.txTimer.Stop()
		d.txFlushArmed = false
	}
	// Staging a frame lands its bytes in a pre-registered ring buffer, the
	// model of DMA into shared memory.
	fl := &d.txFlight
	for _, pkt := range d.txQueue {
		fl.Stage(d.rt, pkt, pkt.Data)
	}
	clear(d.txQueue)
	d.txQueue = d.txQueue[:0]
	b := d.rt.Batch(ctx)
	for _, p := range fl.Payloads {
		b.CallPayload(hXmitFrame, p)
	}
	err := b.Flush()
	if err != nil {
		d.Adapter.Stats.TxErrors += uint64(len(fl.Items))
	} else {
		for _, pkt := range fl.Items {
			if xerr := d.nuc.xmitFrame(ctx, pkt); xerr != nil && err == nil {
				err = xerr
			}
		}
	}
	fl.Release(d.rt)
	return d.absorbContainedFault(err)
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

// deliverRx hands one interrupt's burst of drained RX frames up the stack.
// In the decaf data path the crossing cannot happen in IRQ context, so a
// work item submits the batched upcalls — the work-queue handoff of §3.1.3
// applied to the receive path — and delivers the frames once the flush
// returns, in the same work item. A faulted decaf driver drops its own
// drain; the kernel survives.
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
		fl := &d.rxFlight
		for i := range burst {
			fl.Stage(d.rt, &burst[i], burst[i].Data)
		}
		b := d.rt.Batch(wctx)
		for _, p := range fl.Payloads {
			b.CallPayload(hRxFrame, p)
		}
		if b.Flush() != nil {
			d.Adapter.Stats.RxDropped += uint64(len(fl.Items))
		} else {
			for _, pkt := range fl.Items {
				d.netdev.Receive(pkt)
			}
		}
		fl.Release(d.rt)
	})
}
