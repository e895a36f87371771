// Package es1371hw models the Ensoniq ES1371 AudioPCI controller behind the
// ens1371 driver: AC'97 codec port, sample-rate-converter RAM, and the DAC2
// playback engine that consumes PCM frames from host memory over DMA and
// interrupts once per period.
package es1371hw

import (
	"sync"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/ktime"
)

// PCI identity.
const (
	VendorID = 0x1274
	DeviceID = 0x1371
)

// Register offsets (relative to the I/O BAR).
const (
	RegControl       = 0x00
	RegStatus        = 0x04
	RegSRC           = 0x10
	RegCodec         = 0x14
	RegDAC2Count     = 0x28 // period length in samples
	RegDAC2FrameAddr = 0x38 // playback buffer bus address
	RegDAC2FrameSize = 0x3C // playback buffer size in dwords
)

// Control bits.
const (
	CtrlDAC2En = 1 << 5
)

// Status bits.
const (
	StatusIntr = 1 << 31
	StatusDAC2 = 1 << 1
)

// Codec port bits: write = addr<<16 | value; read = addr<<16 | ReadRequest,
// poll Ready, value in low 16 bits.
const (
	CodecReadRequest = 1 << 23
	CodecReady       = 1 << 31
)

// SRC port bits: write = addr<<25 | WE | data16.
const (
	SRCWE   = 1 << 24
	SRCBusy = 1 << 23
)

// SRCRAMSize is the sample-rate-converter RAM the driver initializes at
// probe — 128 entries, the bulk of the ens1371's 237 init crossings.
const SRCRAMSize = 128

// Device is one simulated ES1371.
type Device struct {
	PCI *hw.PCIDevice

	mu    sync.Mutex
	clock *ktime.Clock

	control    uint32
	status     uint32
	codecRegs  [64]uint16
	srcRAM     [SRCRAMSize]uint16
	srcLatch   uint32
	codecLatch uint32

	frameAddr  uint32
	frameSize  uint32 // dwords
	periodLen  uint32 // samples per period
	sampleRate int

	pos      uint32 // playback position in samples
	consumed uint64 // total samples consumed
	timer    *ktime.Timer
}

// New creates an ES1371 at the given I/O base.
func New(bus *hw.Bus, irq int, ioBase uint16) *Device {
	d := &Device{clock: bus.Clock(), sampleRate: 44100}
	d.PCI = hw.NewPCIDevice("ens1371", VendorID, DeviceID, 0x08)
	d.PCI.SetBAR(0, &hw.BAR{Base: uint32(ioBase), Size: 0x40, IsIO: true})
	bus.Attach(d.PCI)
	d.PCI.SetIRQ(bus.IRQ(irq))
	bus.RegisterPorts(ioBase, 0x40, d)
	// AC'97 reset values: vendor id in 0x7C/0x7E.
	d.codecRegs[0x7C/2] = 0x4352 // 'CR'
	d.codecRegs[0x7E/2] = 0x5914 // 'Y' rev
	return d
}

// PortRead implements hw.PortHandler.
func (d *Device) PortRead(off uint16, size int) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch off {
	case RegControl:
		return d.control
	case RegStatus:
		return d.status
	case RegSRC:
		return d.srcLatch // busy bit already clear: instant SRC
	case RegCodec:
		return d.codecLatch
	case RegDAC2Count:
		return d.periodLen
	case RegDAC2FrameAddr:
		return d.frameAddr
	case RegDAC2FrameSize:
		return d.frameSize
	default:
		return 0
	}
}

// PortWrite implements hw.PortHandler.
func (d *Device) PortWrite(off uint16, size int, v uint32) {
	switch off {
	case RegControl:
		d.setControl(v)
	case RegStatus:
		d.mu.Lock()
		d.status &^= v & StatusDAC2 // write-one-to-clear the DAC2 cause
		if d.status&^StatusIntr == 0 {
			d.status &^= StatusIntr
		}
		d.mu.Unlock()
	case RegSRC:
		d.mu.Lock()
		if v&SRCWE != 0 {
			addr := (v >> 25) & 0x7F
			d.srcRAM[addr] = uint16(v)
		}
		d.srcLatch = v &^ (SRCBusy | SRCWE)
		d.mu.Unlock()
	case RegCodec:
		d.mu.Lock()
		addr := (v >> 16) & 0x7F
		if v&CodecReadRequest != 0 {
			d.codecLatch = CodecReady | (addr << 16) | uint32(d.codecRegs[addr/2])
		} else {
			d.codecRegs[addr/2] = uint16(v)
			d.codecLatch = CodecReady | (addr << 16) | uint32(uint16(v))
		}
		d.mu.Unlock()
	case RegDAC2Count:
		d.mu.Lock()
		d.periodLen = v
		d.mu.Unlock()
	case RegDAC2FrameAddr:
		d.mu.Lock()
		d.frameAddr = v
		d.mu.Unlock()
	case RegDAC2FrameSize:
		d.mu.Lock()
		d.frameSize = v
		d.mu.Unlock()
	}
}

func (d *Device) setControl(v uint32) {
	d.mu.Lock()
	wasOn := d.control&CtrlDAC2En != 0
	d.control = v
	isOn := v&CtrlDAC2En != 0
	d.mu.Unlock()
	if isOn && !wasOn {
		d.armPeriodTimer()
	}
	if !isOn && wasOn {
		d.mu.Lock()
		if d.timer != nil {
			d.timer.Stop()
			d.timer = nil
		}
		d.mu.Unlock()
	}
}

// armPeriodTimer schedules the next period-elapsed interrupt in virtual
// time: periodLen samples at the sample rate.
func (d *Device) armPeriodTimer() {
	d.mu.Lock()
	period := d.periodLen
	rate := d.sampleRate
	if period == 0 || rate == 0 {
		d.mu.Unlock()
		return
	}
	dt := time.Duration(float64(period) / float64(rate) * float64(time.Second))
	d.timer = d.clock.ScheduleAfter(dt, d.periodElapsed)
	d.mu.Unlock()
}

func (d *Device) periodElapsed() {
	d.mu.Lock()
	if d.control&CtrlDAC2En == 0 {
		d.mu.Unlock()
		return
	}
	d.pos = (d.pos + d.periodLen) % maxU32(d.frameSize*2, 1)
	d.consumed += uint64(d.periodLen)
	d.status |= StatusIntr | StatusDAC2
	d.mu.Unlock()
	d.PCI.RaiseIRQ()
	d.armPeriodTimer()
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// Position reports the playback cursor in samples.
func (d *Device) Position() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pos
}

// Consumed reports total samples played.
func (d *Device) Consumed() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.consumed
}

// SRCReg reads back an SRC RAM entry (test/diagnostic access).
func (d *Device) SRCReg(addr int) uint16 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.srcRAM[addr]
}
