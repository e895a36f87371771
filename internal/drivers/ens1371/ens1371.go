// Package ens1371 is the Decaf conversion of the Ensoniq AudioPCI sound
// driver. It has the paper's cleanest split (§4.1, Table 2): no driver
// library at all — every user-level function is in the decaf driver — and
// only the interrupt handler and playback data path remain in the nucleus.
// The decaf driver is handler bodies (handlers.go) that reach the chip and
// the sound core only through scalar downcalls and report through shared
// state cells. Its initialization is the costliest of the five (6.34 s, 237
// crossings in Table 3) because probing walks the sample-rate-converter RAM
// and the AC'97 codec register file through kernel entry points one
// register at a time.
package ens1371

import (
	"errors"
	"fmt"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/es1371hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/ksound"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/xpc"
)

// HWException is the decaf driver's checked exception class.
const HWException = "Ens1371HWException"

// Data-path CPU costs: audio is low bandwidth, so utilization rounds to
// zero as in Table 3.
const (
	periodIntrCost = 3 * time.Microsecond
	copyCostPerKB  = 1 * time.Microsecond
)

// BufferFrames is the playback DMA buffer size in frames.
const BufferFrames = 16 * 1024

// Chip is the kernel-resident ensoniq structure. The decaf driver never sees
// it: the codec vendor probe reads arrives through a shared state cell and
// is adopted here (Driver.probe); the rest the kernel side already knows.
type Chip struct {
	Name        string
	CodecVendor uint32
	Rate        int32
	Channels    int32
	PeriodLen   int32
	Running     bool
	Periods     uint64
	MixerCtls   int32

	HWPos     uint32
	IntrCount uint64
}

// Config configures a driver instance.
type Config struct {
	Mode xpc.Mode
	IRQ  int
}

// Driver is one bound ens1371 instance.
type Driver struct {
	kern   *kernel.Kernel
	snd    *ksound.Subsystem
	dev    *es1371hw.Device
	rt     *xpc.Runtime
	irq    int
	ioBase uint16

	Chip *Chip

	card   *ksound.Card
	buf    hw.DMAAddr
	stream *ksound.Substream

	// Recovery supervision state (EnableRecovery): during an outage the PCM
	// ops act as the kernel-facing proxy — they journal their intent and
	// defer the crossing to the journal replay instead of reaching the
	// suspect decaf driver, so the card looks slow, not dead. deferredOps
	// counts ops absorbed that way. failed marks a fail-stopped device:
	// every PCM op then errors explicitly instead of silently deferring.
	journal     *recovery.StateJournal
	recovering  bool
	failed      bool
	deferredOps uint64
}

// errFailStopped is what every PCM op returns once the restart budget is
// exhausted: the card is explicitly dead, not slow.
var errFailStopped = errors.New("ens1371: device fail-stopped (recovery budget exhausted)")

// proxyOp runs one kernel-facing PCM op under the recovery proxy. A
// fail-stopped device errors explicitly. During an outage the op defers:
// deferred runs (journal the intent, apply kernel-side effects) and the
// caller sees success — slow, not dead. Otherwise the op crosses; on
// success record runs (journal the established state), and a contained
// decaf fault under supervision is absorbed the same way as an outage (the
// supervisor owns the restart; the journal replay applies the intent).
func (d *Driver) proxyOp(record, deferred func(), op func() error) error {
	if d.failed {
		return errFailStopped
	}
	if d.recovering {
		if deferred != nil {
			deferred()
		}
		d.deferredOps++
		return nil
	}
	err := op()
	if err == nil {
		if record != nil {
			record()
		}
		return nil
	}
	if d.journal != nil && xpc.IsUserFault(err) {
		if deferred != nil {
			deferred()
		}
		d.deferredOps++
		return nil
	}
	return err
}

// New binds the driver to a device model.
func New(k *kernel.Kernel, snd *ksound.Subsystem, dev *es1371hw.Device, ioBase uint16, cfg Config) *Driver {
	d := &Driver{
		kern: k, snd: snd, dev: dev, irq: cfg.IRQ, ioBase: ioBase,
		Chip: &Chip{},
	}
	d.rt = xpc.NewRuntime(k, "ens1371", cfg.Mode, nil)
	d.rt.DisableIRQs = []int{cfg.IRQ}
	d.registerDowncalls()
	return d
}

// Runtime exposes the XPC runtime.
func (d *Driver) Runtime() *xpc.Runtime { return d.rt }

// Card returns the registered sound card (after module init).
func (d *Driver) Card() *ksound.Card { return d.card }

// --- nucleus ---

func (d *Driver) outl(off uint16, v uint32) { d.kern.Bus().Outl(d.ioBase+off, v) }
func (d *Driver) inl(off uint16) uint32     { return d.kern.Bus().Inl(d.ioBase + off) }

// codecWrite is a kernel entry point: AC'97 port access is serialized in
// the kernel.
func (d *Driver) codecWrite(ctx *kernel.Context, addr uint32, val uint16) {
	d.outl(es1371hw.RegCodec, addr<<16|uint32(val))
	ctx.UDelay(2)
}

// codecRead is codecWrite's read twin; a codec that does not come ready is
// an error (the C driver's -EIO).
func (d *Driver) codecRead(ctx *kernel.Context, addr uint32) (uint16, error) {
	d.outl(es1371hw.RegCodec, addr<<16|es1371hw.CodecReadRequest)
	ctx.UDelay(2)
	v := d.inl(es1371hw.RegCodec)
	if v&es1371hw.CodecReady == 0 {
		return 0, fmt.Errorf("ens1371: AC'97 codec not ready reading %#x", addr)
	}
	return uint16(v), nil
}

// srcWrite programs one sample-rate-converter RAM entry (kernel entry
// point).
func (d *Driver) srcWrite(ctx *kernel.Context, addr uint32, val uint16) {
	d.outl(es1371hw.RegSRC, addr<<25|es1371hw.SRCWE|uint32(val))
	ctx.UDelay(1)
}

// intr is the interrupt handler, a critical root.
func (d *Driver) intr(ctx *kernel.Context, irq int, dev any) {
	status := d.inl(es1371hw.RegStatus)
	if status&es1371hw.StatusIntr == 0 {
		return
	}
	if status&es1371hw.StatusDAC2 != 0 {
		d.outl(es1371hw.RegStatus, es1371hw.StatusDAC2) // ack
		c := d.Chip
		c.IntrCount++
		c.HWPos = d.dev.Position()
		c.Periods++
		ctx.Charge(periodIntrCost)
		if d.stream != nil {
			d.stream.PeriodElapsed()
		}
	}
}

// allocBuffer allocates the playback DMA buffer (kernel entry point).
func (d *Driver) allocBuffer(ctx *kernel.Context) error {
	b, err := d.kern.Bus().DMA().Alloc(BufferFrames*4, 4096)
	if err != nil {
		return fmt.Errorf("ens1371: playback buffer: %w", err)
	}
	d.buf = b
	return nil
}

func (d *Driver) freeBuffer(ctx *kernel.Context) {
	if d.buf != 0 {
		_ = d.kern.Bus().DMA().Free(d.buf)
		d.buf = 0
	}
}

// startDAC2 programs the frame registers and enables the engine.
func (d *Driver) startDAC2(ctx *kernel.Context) {
	c := d.Chip
	d.outl(es1371hw.RegDAC2FrameAddr, uint32(d.buf))
	d.outl(es1371hw.RegDAC2FrameSize, BufferFrames) // dwords: 1 frame = 1 dword
	d.outl(es1371hw.RegDAC2Count, uint32(c.PeriodLen))
	d.outl(es1371hw.RegControl, d.inl(es1371hw.RegControl)|es1371hw.CtrlDAC2En)
}

func (d *Driver) stopDAC2(ctx *kernel.Context) {
	d.outl(es1371hw.RegControl, d.inl(es1371hw.RegControl)&^uint32(es1371hw.CtrlDAC2En))
}

// pcmOps implements ksound.PCMOps: every operation except the data copy
// crosses to the decaf driver, producing the paper's "15 calls, all during
// playback start and end".
type pcmOps Driver

// Open implements ksound.PCMOps via the decaf driver. Under recovery
// supervision a contained fault (or an in-progress outage) defers the
// buffer allocation to the journal replay instead of erroring.
func (o *pcmOps) Open(ctx *kernel.Context) error {
	d := (*Driver)(o)
	return d.proxyOp(d.journalPCMOpen, d.journalPCMOpen, func() error {
		return d.rt.UpcallHandler(ctx, "snd_ens1371_playback_open")
	})
}

// HWParams implements ksound.PCMOps via the decaf driver, journaling the
// configuration so a recovery replays it.
func (o *pcmOps) HWParams(ctx *kernel.Context, rate, channels, periodFrames int) error {
	d := (*Driver)(o)
	journal := func() { d.journalHWParams(rate, channels, periodFrames) }
	return d.proxyOp(journal, journal, func() error {
		return d.hwParams(ctx, rate, channels, periodFrames)
	})
}

// Prepare implements ksound.PCMOps via the decaf driver. Its whole effect
// is the kernel-side pointer reset, so the recovery proxy applies that
// directly when deferring (transient state: nothing to journal).
func (o *pcmOps) Prepare(ctx *kernel.Context) error {
	d := (*Driver)(o)
	return d.proxyOp(nil, func() { d.Chip.HWPos = 0 }, func() error {
		return d.rt.UpcallHandler(ctx, "snd_ens1371_prepare")
	})
}

// Trigger implements ksound.PCMOps via the decaf driver, journaling the
// engine state so a recovery replays it (a stream started before the fault
// is running again after the restart).
func (o *pcmOps) Trigger(ctx *kernel.Context, start bool) error {
	d := (*Driver)(o)
	journal := func() { d.journalTrigger(start) }
	return d.proxyOp(journal, journal, func() error {
		return d.rt.UpcallHandlerData(ctx, "snd_ens1371_trigger", flagPayload[start])
	})
}

// Pointer implements ksound.PCMOps in the nucleus (fast path).
func (o *pcmOps) Pointer(ctx *kernel.Context) uint32 {
	return (*Driver)(o).dev.Position()
}

// CopyAudio implements ksound.PCMOps in the nucleus: the playback data path.
func (o *pcmOps) CopyAudio(ctx *kernel.Context, frameOff uint32, data []byte) error {
	d := (*Driver)(o)
	if d.buf == 0 {
		return fmt.Errorf("ens1371: copy with no buffer")
	}
	off := (frameOff % BufferFrames) * 4
	n := len(data)
	if int(off)+n > BufferFrames*4 {
		// Wrap: split the copy.
		first := BufferFrames*4 - int(off)
		d.kern.Bus().DMA().Write(d.buf+hw.DMAAddr(off), data[:first])
		d.kern.Bus().DMA().Write(d.buf, data[first:])
	} else {
		d.kern.Bus().DMA().Write(d.buf+hw.DMAAddr(off), data)
	}
	ctx.Charge(time.Duration(n/1024+1) * copyCostPerKB)
	return nil
}

// Close implements ksound.PCMOps via the decaf driver. During an outage (or
// on a contained fault) the kernel side releases the buffer directly and
// drops the stream's journal entries — a closed stream is configuration torn
// down, not configuration to replay.
func (o *pcmOps) Close(ctx *kernel.Context) error {
	d := (*Driver)(o)
	deferred := func() {
		d.unjournalStream()
		d.freeBuffer(ctx)
	}
	return d.proxyOp(d.unjournalStream, deferred, func() error {
		return d.rt.UpcallHandler(ctx, "snd_ens1371_playback_close")
	})
}

// --- module glue ---

// Module adapts the driver to the module loader.
func (d *Driver) Module() kernel.Module { return (*ensModule)(d) }

type ensModule Driver

// ModuleName implements kernel.Module.
func (m *ensModule) ModuleName() string { return "ens1371" }

// Init creates the card, probes through the decaf driver, and installs the
// PCM and interrupt handler.
func (m *ensModule) Init(ctx *kernel.Context) error {
	d := (*Driver)(m)
	d.dev.PCI.EnableBusMaster()
	d.card = d.snd.NewCard("ens1371")

	if err := d.probe(ctx, nil); err != nil {
		return fmt.Errorf("ens1371: probe: %w", err)
	}
	d.journalProbe()
	d.card.SetPCMOps((*pcmOps)(d))
	if err := d.kern.RequestIRQ(d.irq, "ens1371", d.intr, d.Chip); err != nil {
		return err
	}
	return nil
}

// Exit unregisters and quiesces.
func (m *ensModule) Exit(ctx *kernel.Context) {
	d := (*Driver)(m)
	d.stopDAC2(ctx)
	_ = d.kern.FreeIRQ(d.irq, "ens1371")
	_ = d.snd.Unregister("ens1371")
}

// AttachStream lets the playback path deliver period callbacks (set by the
// workload when it opens the substream).
func (d *Driver) AttachStream(st *ksound.Substream) { d.stream = st }
