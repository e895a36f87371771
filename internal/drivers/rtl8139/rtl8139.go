// Package rtl8139 is the Decaf conversion of the 8139too fast Ethernet
// driver. The nucleus keeps the programmed-I/O data path (interrupt handler,
// transmit, receive-ring drain) in the kernel; the decaf driver holds probe
// (EEPROM identification), open/close resource management and media
// handling — handler bodies (handlers.go) that reach the chip only through
// scalar downcalls and report through shared state cells. Per the paper (§4.1), 8139too needed six deferred-work lines in
// the nucleus; everything else is the sliced original.
package rtl8139

import (
	"encoding/binary"
	"fmt"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/rtl8139hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/xpc"
)

// HWException is the decaf driver's checked exception class.
const HWException = "RTL8139HWException"

// Per-packet CPU costs: the 8139 copies every frame over programmed I/O-era
// buffers, so its per-packet cost dwarfs the E1000's (Table 3: ~14% CPU to
// drive 100 Mb/s).
const (
	txPacketCost = 16 * time.Microsecond
	rxPacketCost = 19 * time.Microsecond
)

// Adapter is the kernel-resident rtl8139_private analogue. The decaf driver
// never sees it: what probe establishes arrives through the shared state
// cells and is adopted here (adoptProbe).
type Adapter struct {
	Name      string
	MAC       [6]byte
	MsgEnable int32
	Mtu       int32
	LinkUp    bool
	EEPROM    [eepromWords]uint16 // 93C46 contents, read word-by-word at probe
	Stats     knet.Stats

	// Data-path state.
	TxCurrent uint32
	TxDirty   uint32
	IntrCount uint64
}

// Config configures a driver instance.
type Config struct {
	Mode xpc.Mode
	IRQ  int
	// DataPath places the per-packet receive path; DataPathNucleus is the
	// default. DataPathDecaf routes each drained frame through the decaf
	// driver as one batch per interrupt, submitted through the runtime's
	// transport.
	DataPath xpc.DataPath
	// RxCoalesceWindow bounds how long a drained frame may wait for its
	// batch to fill. 0 (the default) self-tunes: the window tracks an EWMA
	// of observed frame interarrival, scaled to the transport's batch size
	// and clamped to [100µs, 2ms], so it widens at low offered loads (a
	// batch can still fill) and narrows at high rates (frames are not held
	// longer than the traffic warrants). A positive value is an explicit
	// override and disables the self-tuning.
	RxCoalesceWindow time.Duration
}

// Driver is one bound 8139too instance.
type Driver struct {
	kern   *kernel.Kernel
	net    *knet.Subsystem
	dev    *rtl8139hw.Device
	rt     *xpc.Runtime
	irq    int
	ioBase uint16

	Adapter *Adapter

	dataPath xpc.DataPath
	lock     *kernel.SpinLock
	txBufs   [rtl8139hw.NumTxDesc]hw.DMAAddr
	rxBuf    hw.DMAAddr
	rxReadPt uint16
	netdev   *knet.NetDevice

	// Decaf-data-path receive coalescing: the 8139 interrupts per frame, so
	// drained frames accumulate here until a transport batch fills or the
	// coalescing timer closes the window.
	rxPending     []*knet.Packet
	rxWindow      time.Duration
	rxAdaptive    bool
	rxEwma        time.Duration // EWMA of frame interarrival (adaptive mode)
	rxLastFrameAt time.Duration
	rxTimer       *kernel.KTimer
	rxFlushArmed  bool
	rxFlushQueued bool
	// rxInFlight holds flushes submitted through FlushAsync whose frames
	// await the decaf-side completion before delivery up the stack. Inline
	// transports settle during submission (pipeline depth one, the seed
	// behavior); an async transport overlaps the crossing with further
	// interrupt drains. Each flight carries the payload-ring slots its
	// frames crossed in, recycled when the flush settles.
	rxInFlight xpc.FlushPipeline[rxFlight]
	// flights recycles the item and payload lists of settled flushes.
	flights xpc.FlightPool[*knet.Packet]

	// Recovery supervision state (EnableRecovery).
	journal    *recovery.StateJournal
	recovering bool
	holdLimit  int
}

// rxFlight is one in-flight RX flush: the frames it carried and the staged
// payloads they crossed in.
type rxFlight = xpc.Flight[*knet.Packet]

// maxRxInFlight bounds the RX pipeline depth under an async transport.
const maxRxInFlight = 4

// New binds the driver to a device model.
func New(k *kernel.Kernel, net *knet.Subsystem, dev *rtl8139hw.Device, ioBase uint16, cfg Config) *Driver {
	d := &Driver{
		kern: k, net: net, dev: dev, irq: cfg.IRQ, ioBase: ioBase,
		dataPath: cfg.DataPath,
		rxWindow: cfg.RxCoalesceWindow,
		lock:     kernel.NewSpinLock("8139too.lock"),
		Adapter:  &Adapter{MsgEnable: 1, Mtu: 1500},
	}
	if d.rxWindow <= 0 {
		d.rxWindow = rxCoalesceWindow
		d.rxAdaptive = true
	}
	d.rt = xpc.NewRuntime(k, "8139too", cfg.Mode, nil)
	d.rt.DisableIRQs = []int{cfg.IRQ}
	d.registerDowncalls()
	// The coalescing timer runs at high priority and so only enqueues the
	// flush work; the work item performs the batched crossing (§3.1.3).
	d.rxTimer = k.NewTimer("8139too_rx_coalesce", func(tctx *kernel.Context) {
		d.rxFlushArmed = false
		if len(d.rxPending) > 0 {
			d.scheduleRxFlush()
		}
	})
	return d
}

// Runtime exposes the XPC runtime.
func (d *Driver) Runtime() *xpc.Runtime { return d.rt }

// NetDevice returns the registered interface.
func (d *Driver) NetDevice() *knet.NetDevice { return d.netdev }

// --- nucleus (kernel-resident) ---

func (d *Driver) outb(off uint16, v uint8)  { d.kern.Bus().Outb(d.ioBase+off, v) }
func (d *Driver) outw(off uint16, v uint16) { d.kern.Bus().Outw(d.ioBase+off, v) }
func (d *Driver) outl(off uint16, v uint32) { d.kern.Bus().Outl(d.ioBase+off, v) }
func (d *Driver) inb(off uint16) uint8      { return d.kern.Bus().Inb(d.ioBase + off) }
func (d *Driver) inw(off uint16) uint16     { return d.kern.Bus().Inw(d.ioBase + off) }

// resetChip is a kernel entry point: CR writes race the data path. It
// includes the chip's 10 ms settle after reset, which the decaf driver used
// to sleep out itself through the helper library: a body in the worker
// process has no virtual clock, so the wait elapses here, inside the reset
// it belongs to.
func (d *Driver) resetChip(ctx *kernel.Context) error {
	d.outb(rtl8139hw.RegCR, rtl8139hw.CmdReset)
	ctx.UDelay(10)
	if d.inb(rtl8139hw.RegCR)&rtl8139hw.CmdReset != 0 {
		return fmt.Errorf("8139too: chip stuck in reset")
	}
	ctx.MSleep(10)
	return nil
}

// readEEPROMWord is a kernel entry point serializing 93C46 access.
func (d *Driver) readEEPROMWord(ctx *kernel.Context, addr uint8) uint16 {
	d.outb(rtl8139hw.Reg9346CR, 0x80|addr)
	ctx.UDelay(4)
	return d.inw(rtl8139hw.Reg9346CR)
}

// allocBuffers is a kernel entry point: DMA allocation.
func (d *Driver) allocBuffers(ctx *kernel.Context) error {
	dma := d.kern.Bus().DMA()
	rx, err := dma.Alloc(rtl8139hw.RxBufLen, 256)
	if err != nil {
		return fmt.Errorf("8139too: rx buffer: %w", err)
	}
	var txs [rtl8139hw.NumTxDesc]hw.DMAAddr
	for i := range txs {
		b, err := dma.Alloc(2048, 32)
		if err != nil {
			for _, pb := range txs[:i] {
				_ = dma.Free(pb)
			}
			_ = dma.Free(rx)
			return fmt.Errorf("8139too: tx buffer %d: %w", i, err)
		}
		txs[i] = b
	}
	d.rxBuf, d.txBufs = rx, txs
	d.rxReadPt = 0
	return nil
}

func (d *Driver) freeBuffers(ctx *kernel.Context) {
	dma := d.kern.Bus().DMA()
	if d.rxBuf != 0 {
		_ = dma.Free(d.rxBuf)
		d.rxBuf = 0
	}
	for i, b := range d.txBufs {
		if b != 0 {
			_ = dma.Free(b)
			d.txBufs[i] = 0
		}
	}
}

// startChip programs buffers and enables rx/tx (kernel entry point).
func (d *Driver) startChip(ctx *kernel.Context) {
	d.outl(rtl8139hw.RegRBSTART, uint32(d.rxBuf))
	for i := range d.txBufs {
		d.outl(rtl8139hw.RegTSAD0+uint16(4*i), uint32(d.txBufs[i]))
	}
	d.outb(rtl8139hw.RegCR, rtl8139hw.CmdRxEnable|rtl8139hw.CmdTxEnable)
	d.outw(rtl8139hw.RegIMR, rtl8139hw.IntROK|rtl8139hw.IntTOK)
	d.rxReadPt = 0
	d.Adapter.TxCurrent, d.Adapter.TxDirty = 0, 0
}

func (d *Driver) stopChip(ctx *kernel.Context) {
	d.outw(rtl8139hw.RegIMR, 0)
	d.outb(rtl8139hw.RegCR, 0)
}

// intr is the interrupt handler, a critical root.
func (d *Driver) intr(ctx *kernel.Context, irq int, dev any) {
	isr := d.inw(rtl8139hw.RegISR)
	if isr == 0 {
		return
	}
	d.outw(rtl8139hw.RegISR, isr) // ack
	a := d.Adapter
	a.IntrCount++
	if isr&rtl8139hw.IntTOK != 0 {
		d.lock.Lock(ctx)
		a.TxDirty = a.TxCurrent
		d.lock.Unlock(ctx)
	}
	if isr&rtl8139hw.IntROK != 0 {
		d.rxInterrupt(ctx)
	}
}

// rxInterrupt drains the receive ring (critical root path). Everything the
// device wrote since the last drain is one contiguous run from the read
// pointer to CBR (the modeled ring rewinds instead of wrapping), so the
// interrupt's whole burst leaves DMA memory in one read, into one block
// behind one slab of packets: two allocations per interrupt however many
// frames it carries, both fresh, so a packet the stack keeps still owns its
// bytes (and keeps its burst's block alive with it).
//
//decaf:hotpath
func (d *Driver) rxInterrupt(ctx *kernel.Context) {
	a := d.Adapter
	d.lock.Lock(ctx)
	pending := int(d.inw(rtl8139hw.RegCBR)) - int(d.rxReadPt)
	if pending <= 0 {
		d.lock.Unlock(ctx)
		return
	}
	//decaf:allowalloc once per interrupt: the burst's bytes, fresh because the stack may keep any packet of it
	block := make([]byte, pending)
	d.kern.Bus().DMA().ReadInto(d.rxBuf+hw.DMAAddr(d.rxReadPt), block)
	frames := 0
	for off := 0; ; frames++ {
		length, ok := rxFrameAt(block, off)
		if !ok {
			break
		}
		off += rxFrameSpan(length)
	}
	//decaf:allowalloc once per interrupt: the burst's packets, one slab for the same reason
	burst := make([]knet.Packet, frames)
	off := 0
	for j := range burst {
		length, _ := rxFrameAt(block, off)
		start := off + rtl8139hw.RxHeaderLen
		// Capped, so a sink that appends to one frame cannot reach the next.
		burst[j].Data = block[start : start+length : start+length]
		span := rxFrameSpan(length)
		off += span
		d.rxReadPt += uint16(span)
		d.outw(rtl8139hw.RegCAPR, d.rxReadPt-16)
		a.Stats.RxPackets++
		a.Stats.RxBytes += uint64(length)
		ctx.Charge(rxPacketCost)
	}
	// Cursor rewind mirrors the device model's drain-reset.
	if d.inb(rtl8139hw.RegCR)&rtl8139hw.CmdBufEmpty != 0 {
		d.rxReadPt = 0
	}
	d.lock.Unlock(ctx)
	d.deliverRx(burst)
}

// rxFrameAt parses the device's 4-byte receive header at off in a drained
// run: ok is false where the run ends, the header is not ROK, or the length
// is not one a frame inside the run can have.
func rxFrameAt(run []byte, off int) (length int, ok bool) {
	if off+rtl8139hw.RxHeaderLen > len(run) || binary.LittleEndian.Uint16(run[off:])&0x0001 == 0 { // not ROK
		return 0, false
	}
	length = int(binary.LittleEndian.Uint16(run[off+2:])) - 4 // strip CRC
	if length <= 0 || off+rtl8139hw.RxHeaderLen+length > len(run) {
		return 0, false
	}
	return length, true
}

// rxFrameSpan is the ring space one frame takes: header, frame and CRC,
// dword-aligned.
func rxFrameSpan(length int) int { return (rtl8139hw.RxHeaderLen + length + 4 + 3) &^ 3 }

// rxCoalesceWindow bounds how long a decaf-data-path frame may wait for its
// batch to fill before the timer flushes the queue — the driver-level
// analogue of NIC interrupt coalescing, needed because the 8139 interrupts
// per frame. In adaptive mode it is the initial window and the clamp
// ceiling; rxCoalesceMin is the clamp floor.
const (
	rxCoalesceWindow = 2 * time.Millisecond
	rxCoalesceMin    = 100 * time.Microsecond
)

// observeRxInterarrival feeds n freshly drained frames into the EWMA of
// frame interarrival (α = 1/8), the signal the adaptive coalescing window
// tunes from — as modern NICs self-tune their interrupt moderation.
func (d *Driver) observeRxInterarrival(n int) {
	now := d.kern.Clock().Now()
	if d.rxLastFrameAt > 0 && now > d.rxLastFrameAt {
		delta := (now - d.rxLastFrameAt) / time.Duration(n)
		if d.rxEwma == 0 {
			d.rxEwma = delta
		} else {
			d.rxEwma += (delta - d.rxEwma) / 8
		}
	}
	d.rxLastFrameAt = now
}

// coalesceWindow is the current RX coalescing window. With an explicit
// RxCoalesceWindow it is fixed; in adaptive mode it is sized so a transport
// batch can fill at the observed arrival rate (EWMA interarrival × batch ×
// 25% headroom), clamped to [rxCoalesceMin, rxCoalesceWindow] — low rates
// hold frames no longer than 2 ms, high rates flush partial batches in
// hundreds of microseconds instead of milliseconds.
func (d *Driver) coalesceWindow() time.Duration {
	if !d.rxAdaptive || d.rxEwma == 0 {
		return d.rxWindow
	}
	w := d.rxEwma * time.Duration(d.rt.Transport().MaxBatch()) * 5 / 4
	if w < rxCoalesceMin {
		w = rxCoalesceMin
	}
	if w > rxCoalesceWindow {
		w = rxCoalesceWindow
	}
	return w
}

// RxCoalesceWindow reports the coalescing window currently in effect
// (fixed, or the adaptive window's present value).
func (d *Driver) RxCoalesceWindow() time.Duration { return d.coalesceWindow() }

// deliverRx hands drained frames up the stack. In the decaf data path the
// frames accumulate until a transport batch fills (or the coalescing window
// closes), then cross to the decaf driver in one batched flush before
// delivery.
func (d *Driver) deliverRx(burst []knet.Packet) {
	if len(burst) == 0 {
		return
	}
	if d.dataPath != xpc.DataPathDecaf || d.rt.Mode != xpc.ModeDecaf {
		for i := range burst {
			d.netdev.Receive(&burst[i])
		}
		return
	}
	d.observeRxInterarrival(len(burst))
	for i := range burst {
		d.rxPending = append(d.rxPending, &burst[i])
	}
	if len(d.rxPending) >= d.rt.Transport().MaxBatch() {
		d.scheduleRxFlush()
	} else if !d.rxFlushArmed && !d.rxFlushQueued {
		d.rxFlushArmed = true
		d.rxTimer.Schedule(d.coalesceWindow())
	}
}

// scheduleRxFlush queues the batched RX flush in process context, where the
// crossing is legal. At most one flush is in flight at a time.
func (d *Driver) scheduleRxFlush() {
	if d.rxFlushQueued {
		return
	}
	d.rxFlushQueued = true
	d.kern.DeferToWork(func(wctx *kernel.Context) { d.flushRx(wctx) })
}

// flushRx submits every coalesced frame to the decaf driver via FlushAsync,
// then delivers the frames of every flush whose crossing has (virtually)
// completed. Inline transports settle during submission, so delivery
// happens in the same work item — the seed behavior; an async transport
// lets the interrupt path keep draining while the decaf side inspects.
func (d *Driver) flushRx(wctx *kernel.Context) {
	d.rxFlushQueued = false
	// The flush consumes any armed coalescing timer: it should fire only
	// when a partial queue goes stale, not mid-stream between full batches.
	if d.rxFlushArmed {
		d.rxTimer.Stop()
		d.rxFlushArmed = false
	}
	if len(d.rxPending) > 0 {
		fl := d.flights.Get()
		for _, pkt := range d.rxPending {
			fl.Stage(d.rt, pkt, pkt.Data)
		}
		clear(d.rxPending)
		d.rxPending = d.rxPending[:0]
		b := d.rt.Batch(wctx)
		for _, p := range fl.Payloads {
			b.UpcallHandlerPayload("rtl8139_rx_frame", p)
		}
		d.rxInFlight.Push(b.FlushAsync(), fl)
	}
	d.reapRx(wctx, d.rxInFlight.Len() >= maxRxInFlight)
}

// deliverFrames/dropFrames are the RX pipeline's deliver/drop pair; both
// hand the flight back to the pool, which recycles its payload slots (the
// flush has settled).
func (d *Driver) deliverFrames(f rxFlight) {
	for _, pkt := range f.Items {
		d.netdev.Receive(pkt)
	}
	d.flights.Release(d.rt, f)
}

func (d *Driver) dropFrames(f rxFlight, _ error) {
	d.Adapter.Stats.RxDropped += uint64(len(f.Items))
	d.flights.Release(d.rt, f)
}

// reapRx delivers the frames of every settled in-flight flush; with force,
// it first waits for the oldest (charging any residual stall). A faulted
// decaf driver drops its own drain; the kernel survives.
func (d *Driver) reapRx(ctx *kernel.Context, force bool) {
	_ = d.rxInFlight.Reap(ctx, d.kern.Clock().Now(), force, d.deliverFrames, d.dropFrames)
}

// Quiesce waits for every in-flight decaf crossing and delivers the reaped
// frames; workload harnesses call it before closing a measurement phase.
func (d *Driver) Quiesce(ctx *kernel.Context) error {
	_ = d.rxInFlight.Drain(ctx, d.deliverFrames, d.dropFrames)
	return d.rt.DrainCrossings(ctx)
}

// xmit is hard_start_xmit, a critical root.
func (d *Driver) xmit(ctx *kernel.Context, pkt *knet.Packet) error {
	if len(pkt.Data) > 1792 {
		return fmt.Errorf("8139too: frame too large")
	}
	a := d.Adapter
	d.lock.Lock(ctx)
	entry := a.TxCurrent % rtl8139hw.NumTxDesc
	if a.TxCurrent-a.TxDirty >= rtl8139hw.NumTxDesc {
		d.lock.Unlock(ctx)
		a.Stats.TxErrors++
		return fmt.Errorf("8139too: tx descriptors exhausted")
	}
	d.kern.Bus().DMA().Write(d.txBufs[entry], pkt.Data)
	a.TxCurrent++
	a.Stats.TxPackets++
	a.Stats.TxBytes += uint64(len(pkt.Data))
	ctx.Charge(txPacketCost)
	size := uint32(len(pkt.Data))
	d.lock.Unlock(ctx)

	// Doorbell outside the lock: it synchronously raises TOK.
	d.outl(rtl8139hw.RegTSD0+uint16(4*entry), size)
	return nil
}

// --- module & netdev glue ---

// Module adapts the driver to the module loader.
func (d *Driver) Module() kernel.Module { return (*rtlModule)(d) }

type rtlModule Driver

// ModuleName implements kernel.Module.
func (m *rtlModule) ModuleName() string { return "8139too" }

// Init probes through the decaf driver and registers the interface.
func (m *rtlModule) Init(ctx *kernel.Context) error {
	d := (*Driver)(m)
	d.dev.PCI.EnableBusMaster()
	if err := d.probe(ctx); err != nil {
		return fmt.Errorf("8139too: probe: %w", err)
	}
	d.Adapter.Name = d.net.FreeName("eth")
	nd, err := d.net.Register(d.Adapter.Name, int(d.Adapter.Mtu), (*rtlOps)(d))
	if err != nil {
		return err
	}
	nd.MAC = d.Adapter.MAC
	d.netdev = nd
	d.journalProbe()
	return nil
}

// Exit unregisters and quiesces.
func (m *rtlModule) Exit(ctx *kernel.Context) {
	d := (*Driver)(m)
	if d.netdev != nil && d.netdev.IsUp() {
		_ = d.netdev.Down(ctx)
	}
	if d.netdev != nil {
		_ = d.net.Unregister(d.netdev.Name)
	}
}

type rtlOps Driver

// Open implements knet.DeviceOps via the decaf driver. During a recovery
// outage control-plane ops refuse (EBUSY-style) rather than crossing into
// the suspect or mid-rebuild decaf driver.
func (o *rtlOps) Open(ctx *kernel.Context) error {
	d := (*Driver)(o)
	if d.recovering {
		return fmt.Errorf("8139too: open while the driver is recovering")
	}
	if err := d.open(ctx); err != nil {
		return err
	}
	d.journalOpen()
	return nil
}

// Stop implements knet.DeviceOps via the decaf driver. Coalesced RX frames
// not yet flushed are purged, as a real ifdown purges driver queues, and
// in-flight decaf crossings settle (their frames are dropped rather than
// delivered into a closing interface).
func (o *rtlOps) Stop(ctx *kernel.Context) error {
	d := (*Driver)(o)
	if d.recovering {
		return fmt.Errorf("8139too: stop while the driver is recovering")
	}
	d.rxTimer.Stop()
	d.rxFlushArmed = false
	d.rxFlushQueued = false
	if n := len(d.rxPending); n > 0 {
		d.rxPending = nil
		d.Adapter.Stats.RxDropped += uint64(n)
	}
	_ = d.rxInFlight.Drain(ctx, func(f rxFlight) {
		d.dropFrames(f, nil)
	}, d.dropFrames)
	if d.journal != nil {
		d.journal.Remove("ifup")
	}
	return d.rt.UpcallHandler(ctx, "rtl8139_close")
}

// StartXmit implements knet.DeviceOps in the nucleus.
func (o *rtlOps) StartXmit(ctx *kernel.Context, pkt *knet.Packet) error {
	return (*Driver)(o).xmit(ctx, pkt)
}
