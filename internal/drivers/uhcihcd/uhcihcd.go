// Package uhcihcd is the Decaf conversion of the uhci-hcd USB 1.1 host
// controller driver. It is the paper's outlier (§4.1): "we were only able
// to convert 4% of the functions in uhci-hcd to Java because the driver
// contained several functions on the data path that could potentially call
// nearly any code in the driver." The nucleus therefore keeps almost
// everything — schedule management, TD bookkeeping, the interrupt handler —
// and the decaf driver holds only controller reset/configuration and
// suspend: handler bodies (handlers.go) that reach the controller only
// through scalar downcalls and report through shared state cells.
package uhcihcd

import (
	"fmt"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/uhcihw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/kusb"
	"decafdrivers/internal/xpc"
)

// HWException is the decaf driver's checked exception class.
const HWException = "UhciHWException"

// Per-TD CPU cost in the completion path (low-bandwidth USB 1.1: CPU
// utilization rounds to 0.1% in Table 3).
const tdCost = 60 * time.Nanosecond

// MaxPacket is the full-speed bulk packet size.
const MaxPacket = 64

// numPorts is the root hub's port count.
const numPorts = 2

// HCState is the kernel-resident controller state. The decaf driver never
// sees it: what the start body establishes arrives through the shared state
// cells and is adopted here (adoptStart).
type HCState struct {
	FrameBase uint32
	Port      [numPorts]uint32
	Running   bool

	TDsRetired uint64
	IntrCount  uint64
}

// Config configures a driver instance.
type Config struct {
	Mode xpc.Mode
	IRQ  int
}

// Driver is one bound uhci-hcd instance.
type Driver struct {
	kern   *kernel.Kernel
	usb    *kusb.Core
	dev    *uhcihw.Device
	rt     *xpc.Runtime
	irq    int
	ioBase uint16

	State *HCState

	lock      *kernel.SpinLock
	frameList hw.DMAAddr
	tdPool    hw.DMAAddr
	pending   *pendingURB
}

type pendingURB struct {
	urb     *kusb.URB
	firstTD hw.DMAAddr
	numTDs  int
}

// New binds the driver to a controller model.
func New(k *kernel.Kernel, usb *kusb.Core, dev *uhcihw.Device, ioBase uint16, cfg Config) *Driver {
	d := &Driver{
		kern: k, usb: usb, dev: dev, irq: cfg.IRQ, ioBase: ioBase,
		lock:  kernel.NewSpinLock("uhci.lock"),
		State: &HCState{},
	}
	d.rt = xpc.NewRuntime(k, "uhci-hcd", cfg.Mode, nil)
	d.rt.DisableIRQs = []int{cfg.IRQ}
	d.registerDowncalls()
	return d
}

// Runtime exposes the XPC runtime.
func (d *Driver) Runtime() *xpc.Runtime { return d.rt }

// --- nucleus ---

func (d *Driver) outb(off uint16, v uint8)  { d.kern.Bus().Outb(d.ioBase+off, v) }
func (d *Driver) outw(off uint16, v uint16) { d.kern.Bus().Outw(d.ioBase+off, v) }
func (d *Driver) outl(off uint16, v uint32) { d.kern.Bus().Outl(d.ioBase+off, v) }
func (d *Driver) inw(off uint16) uint16     { return d.kern.Bus().Inw(d.ioBase + off) }

// allocSchedule allocates the frame list and TD pool (kernel entry point).
func (d *Driver) allocSchedule(ctx *kernel.Context) error {
	dma := d.kern.Bus().DMA()
	fl, err := dma.Alloc(uhcihw.FrameListEntries*4, 4096)
	if err != nil {
		return fmt.Errorf("uhci-hcd: frame list: %w", err)
	}
	pool, err := dma.Alloc(256*uhcihw.TDSize+256*MaxPacket, 16)
	if err != nil {
		_ = dma.Free(fl)
		return fmt.Errorf("uhci-hcd: td pool: %w", err)
	}
	d.frameList, d.tdPool = fl, pool
	d.State.FrameBase = uint32(fl)
	for i := 0; i < uhcihw.FrameListEntries; i++ {
		dma.Write32(fl+hw.DMAAddr(4*i), uhcihw.LinkTerminate)
	}
	return nil
}

func (d *Driver) freeSchedule(ctx *kernel.Context) {
	dma := d.kern.Bus().DMA()
	if d.frameList != 0 {
		_ = dma.Free(d.frameList)
		d.frameList = 0
	}
	if d.tdPool != 0 {
		_ = dma.Free(d.tdPool)
		d.tdPool = 0
	}
}

// intr is the interrupt handler, a critical root: it completes retired
// URBs.
func (d *Driver) intr(ctx *kernel.Context, irq int, dev any) {
	sts := d.inw(uhcihw.RegUSBSTS)
	if sts&uhcihw.StsUSBInt == 0 {
		return
	}
	d.outw(uhcihw.RegUSBSTS, uhcihw.StsUSBInt) // ack
	st := d.State
	st.IntrCount++

	d.lock.Lock(ctx)
	p := d.pending
	var done bool
	if p != nil {
		done = true
		dma := d.kern.Bus().DMA()
		actual := 0
		for i := 0; i < p.numTDs; i++ {
			status := dma.Read32(p.firstTD + hw.DMAAddr(i*uhcihw.TDSize) + 4)
			if status&uhcihw.TDActive != 0 {
				done = false
				break
			}
			actual += int(status&0x7FF) + 1
			ctx.Charge(tdCost)
		}
		if done {
			st.TDsRetired += uint64(p.numTDs)
			p.urb.Status = 0
			p.urb.ActualLength = actual
			d.pending = nil
			d.linkAllFrames(uhcihw.LinkTerminate)
		}
	}
	d.lock.Unlock(ctx)
	if done && p != nil && p.urb.Complete != nil {
		p.urb.Complete(p.urb)
	}
}

// Enqueue implements kusb.HCD in the nucleus: build a TD chain for the URB
// and link it into frame-list entry 0. One URB is outstanding at a time (a
// serialized bulk pipe), which matches the tar workload's sequential
// submission.
func (d *Driver) Enqueue(ctx *kernel.Context, urb *kusb.URB) error {
	d.lock.Lock(ctx)
	if d.pending != nil {
		d.lock.Unlock(ctx)
		return fmt.Errorf("uhci-hcd: pipe busy")
	}
	if d.frameList == 0 {
		d.lock.Unlock(ctx)
		return fmt.Errorf("uhci-hcd: controller not configured")
	}
	dma := d.kern.Bus().DMA()
	n := (len(urb.Data) + MaxPacket - 1) / MaxPacket
	if urb.Dir == kusb.DirIn {
		n = 1
	}
	if n == 0 || n > 256 {
		d.lock.Unlock(ctx)
		return fmt.Errorf("uhci-hcd: URB of %d bytes unsupported", len(urb.Data))
	}
	pid := uint32(uhcihw.PIDOut)
	if urb.Dir == kusb.DirIn {
		pid = uhcihw.PIDIn
	}
	for i := 0; i < n; i++ {
		td := d.tdPool + hw.DMAAddr(i*uhcihw.TDSize)
		buf := d.tdPool + hw.DMAAddr(256*uhcihw.TDSize+i*MaxPacket)
		chunk := urb.Data[i*MaxPacket:]
		if len(chunk) > MaxPacket {
			chunk = chunk[:MaxPacket]
		}
		if urb.Dir == kusb.DirOut {
			dma.Write(buf, chunk)
		}
		link := uint32(td) + uhcihw.TDSize
		status := uint32(uhcihw.TDActive)
		if i == n-1 {
			link = uhcihw.LinkTerminate
			status |= uhcihw.TDIOC
		}
		token := pid | uint32(urb.Endpoint&0xF)<<15 | uint32(len(chunk)-1)<<21
		dma.Write32(td, link)
		dma.Write32(td+4, status)
		dma.Write32(td+8, token)
		dma.Write32(td+12, uint32(buf))
	}
	d.pending = &pendingURB{urb: urb, firstTD: d.tdPool, numTDs: n}
	// Link the chain into every frame-list entry, as real UHCI drivers link
	// the bulk queue head into all frames so it is serviced each
	// millisecond regardless of the current frame number.
	d.linkAllFrames(uint32(d.tdPool))
	d.lock.Unlock(ctx)
	return nil
}

// linkAllFrames writes v into every frame-list entry.
func (d *Driver) linkAllFrames(v uint32) {
	dma := d.kern.Bus().DMA()
	for i := 0; i < uhcihw.FrameListEntries; i++ {
		dma.Write32(d.frameList+hw.DMAAddr(4*i), v)
	}
}

// --- module glue ---

// Module adapts the driver to the module loader.
func (d *Driver) Module() kernel.Module { return (*uhciModule)(d) }

type uhciModule Driver

// ModuleName implements kernel.Module.
func (m *uhciModule) ModuleName() string { return "uhci-hcd" }

// Init resets and configures the controller through the decaf driver, then
// registers with the USB core. A start body that failed — or died in the
// worker — after uhci_alloc_schedule leaves the schedule behind, so a
// failed load stops the controller and frees it.
func (m *uhciModule) Init(ctx *kernel.Context) error {
	d := (*Driver)(m)
	err := d.rt.Call(ctx, hStart)
	if err == nil {
		err = d.adoptStart()
	}
	if err == nil {
		err = d.kern.RequestIRQ(d.irq, "uhci-hcd", d.intr, d.State)
	}
	if err != nil {
		d.stopHC()
		d.freeSchedule(ctx)
		return fmt.Errorf("uhci-hcd: start: %w", err)
	}
	return d.usb.RegisterHCD("uhci-hcd", d)
}

// Exit suspends the controller and unregisters.
func (m *uhciModule) Exit(ctx *kernel.Context) {
	d := (*Driver)(m)
	_ = d.rt.Call(ctx, hSuspend)
	_ = d.kern.FreeIRQ(d.irq, "uhci-hcd")
	_ = d.usb.UnregisterHCD("uhci-hcd")
	d.freeSchedule(ctx)
}
