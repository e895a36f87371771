// Package uhcihw models a UHCI (USB 1.1) host controller: port-I/O register
// file, a frame-list/transfer-descriptor schedule walked once per
// millisecond frame, and root-hub ports with an attachable full-speed
// peripheral. Bandwidth follows the USB 1.1 budget: at most BulkTDsPerFrame
// bulk packets per frame, which caps throughput near the ~1 MB/s the
// paper's tar workload sees.
package uhcihw

import (
	"sync"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/ktime"
)

// Register offsets.
const (
	RegUSBCMD    = 0x00
	RegUSBSTS    = 0x02
	RegUSBINTR   = 0x04
	RegFRNUM     = 0x06
	RegFLBASEADD = 0x08
	RegSOFMOD    = 0x0C
	RegPORTSC1   = 0x10
	RegPORTSC2   = 0x12
)

// USBCMD bits.
const (
	CmdRS      = 1 << 0
	CmdHCReset = 1 << 1
	CmdGReset  = 1 << 2
)

// USBSTS bits.
const (
	StsUSBInt = 1 << 0
	StsHalted = 1 << 5
)

// PORTSC bits.
const (
	PortConnect = 1 << 0
	PortEnable  = 1 << 2
	PortReset   = 1 << 9
)

// TD layout: 16 bytes — link, ctrl/status, token, buffer.
const (
	TDSize = 16
	// TD link terminate bit.
	LinkTerminate = 1
	// TD status bits.
	TDActive = 1 << 23
	TDIOC    = 1 << 24
	// PIDs.
	PIDIn  = 0x69
	PIDOut = 0xE1
)

// BulkTDsPerFrame is the per-frame bulk budget (full-speed USB).
const BulkTDsPerFrame = 18

// FrameListEntries is the UHCI frame list size.
const FrameListEntries = 1024

// Peripheral is a full-speed device attached to a root-hub port.
type Peripheral interface {
	// HandleOut consumes an OUT packet to the given endpoint.
	HandleOut(endpoint int, data []byte)
	// HandleIn produces up to maxLen bytes for an IN packet.
	HandleIn(endpoint int, maxLen int) []byte
}

// Device is one simulated UHCI controller.
type Device struct {
	mu    sync.Mutex
	clock *ktime.Clock
	dma   *hw.DMAMemory
	irqFn func()

	cmd       uint16
	sts       uint16
	intr      uint16
	frnum     uint16
	flbase    uint32
	sofmod    uint8
	portsc    [2]uint16
	periph    [2]Peripheral
	timer     *ktime.Timer
	processed uint64
}

// New creates a UHCI controller at the given I/O base.
func New(bus *hw.Bus, irq int, ioBase uint16) *Device {
	d := &Device{clock: bus.Clock(), dma: bus.DMA(), sts: StsHalted}
	line := bus.IRQ(irq)
	d.irqFn = line.Raise
	bus.RegisterPorts(ioBase, 0x20, d)
	return d
}

// AttachPeripheral connects a device to a root-hub port (0 or 1), setting
// the connect-status bit.
func (d *Device) AttachPeripheral(port int, p Peripheral) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.periph[port] = p
	d.portsc[port] |= PortConnect
}

// Processed reports how many TDs the controller has retired.
func (d *Device) Processed() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.processed
}

// PortRead implements hw.PortHandler.
func (d *Device) PortRead(off uint16, size int) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch off {
	case RegUSBCMD:
		return uint32(d.cmd)
	case RegUSBSTS:
		return uint32(d.sts)
	case RegUSBINTR:
		return uint32(d.intr)
	case RegFRNUM:
		return uint32(d.frnum)
	case RegFLBASEADD:
		return d.flbase
	case RegSOFMOD:
		return uint32(d.sofmod)
	case RegPORTSC1:
		return uint32(d.portsc[0])
	case RegPORTSC2:
		return uint32(d.portsc[1])
	default:
		return 0
	}
}

// PortWrite implements hw.PortHandler.
func (d *Device) PortWrite(off uint16, size int, v uint32) {
	switch off {
	case RegUSBCMD:
		d.command(uint16(v))
	case RegUSBSTS:
		d.mu.Lock()
		// Write-one-to-clear for event bits; HCHalted tracks run state and
		// is not clearable by software.
		d.sts &^= uint16(v) &^ StsHalted
		d.mu.Unlock()
	case RegUSBINTR:
		d.mu.Lock()
		d.intr = uint16(v)
		d.mu.Unlock()
	case RegFRNUM:
		d.mu.Lock()
		d.frnum = uint16(v) & 0x7FF
		d.mu.Unlock()
	case RegFLBASEADD:
		d.mu.Lock()
		d.flbase = v &^ 0xFFF
		d.mu.Unlock()
	case RegSOFMOD:
		d.mu.Lock()
		d.sofmod = uint8(v)
		d.mu.Unlock()
	case RegPORTSC1:
		d.portWrite(0, uint16(v))
	case RegPORTSC2:
		d.portWrite(1, uint16(v))
	}
}

func (d *Device) portWrite(port int, v uint16) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if v&PortReset != 0 {
		// Reset completes immediately in the model; an attached device
		// comes up enabled when reset clears.
		d.portsc[port] |= PortReset
		return
	}
	if d.portsc[port]&PortReset != 0 && v&PortReset == 0 {
		d.portsc[port] &^= PortReset
		if d.periph[port] != nil {
			d.portsc[port] |= PortEnable
		}
	}
	if v&PortEnable != 0 && d.periph[port] != nil {
		d.portsc[port] |= PortEnable
	}
}

func (d *Device) command(v uint16) {
	d.mu.Lock()
	if v&(CmdHCReset|CmdGReset) != 0 {
		d.cmd, d.sts, d.intr, d.frnum, d.flbase = 0, StsHalted, 0, 0, 0
		d.mu.Unlock()
		return
	}
	wasRunning := d.cmd&CmdRS != 0
	d.cmd = v
	running := v&CmdRS != 0
	if running {
		d.sts &^= StsHalted
	} else {
		d.sts |= StsHalted
	}
	d.mu.Unlock()
	if running && !wasRunning {
		d.armFrameTimer()
	}
}

func (d *Device) armFrameTimer() {
	d.mu.Lock()
	if d.cmd&CmdRS == 0 {
		d.mu.Unlock()
		return
	}
	d.timer = d.clock.ScheduleAfter(time.Millisecond, d.frame)
	d.mu.Unlock()
}

// frame executes one 1 ms frame: walk the schedule from the current frame
// list entry, processing active TDs within the bulk budget.
func (d *Device) frame() {
	d.mu.Lock()
	if d.cmd&CmdRS == 0 {
		d.mu.Unlock()
		return
	}
	flbase := d.flbase
	fr := d.frnum
	d.frnum = (d.frnum + 1) & 0x7FF
	d.mu.Unlock()

	raised := false
	if flbase != 0 {
		entry := d.dma.Read32(hw.DMAAddr(flbase) + hw.DMAAddr(4*(uint32(fr)%FrameListEntries)))
		budget := BulkTDsPerFrame
		tdAddr := entry
		for budget > 0 && tdAddr&LinkTerminate == 0 {
			addr := hw.DMAAddr(tdAddr &^ 0xF)
			link := d.dma.Read32(addr)
			status := d.dma.Read32(addr + 4)
			if status&TDActive != 0 {
				token := d.dma.Read32(addr + 8)
				buf := hw.DMAAddr(d.dma.Read32(addr + 12))
				pid := token & 0xFF
				ep := int((token >> 15) & 0xF)
				maxLen := int((token>>21)&0x7FF) + 1
				port := 0
				d.mu.Lock()
				p := d.periph[port]
				d.mu.Unlock()
				actual := 0
				if p != nil {
					switch pid {
					case PIDOut:
						p.HandleOut(ep, d.dma.Read(buf, maxLen))
						actual = maxLen
					case PIDIn:
						data := p.HandleIn(ep, maxLen)
						d.dma.Write(buf, data)
						actual = len(data)
					}
				}
				// Retire: clear active, record actual length (0-based).
				newStatus := (status &^ TDActive) &^ 0x7FF
				if actual > 0 {
					newStatus |= uint32(actual-1) & 0x7FF
				}
				d.dma.Write32(addr+4, newStatus)
				d.mu.Lock()
				d.processed++
				d.mu.Unlock()
				if status&TDIOC != 0 {
					raised = true
				}
				budget--
			}
			tdAddr = link
		}
	}
	if raised {
		d.mu.Lock()
		d.sts |= StsUSBInt
		deliver := d.intr != 0
		d.mu.Unlock()
		if deliver {
			d.irqFn()
		}
	}
	d.armFrameTimer()
}

// Stop cancels the frame timer (module unload).
func (d *Device) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cmd &^= CmdRS
	d.sts |= StsHalted
	if d.timer != nil {
		d.timer.Stop()
	}
}

// FlashDrive is a simple USB mass-storage peripheral: OUT packets to its
// bulk endpoint are written sequentially, IN packets return a status byte.
type FlashDrive struct {
	mu      sync.Mutex
	written uint64
}

// HandleOut implements Peripheral.
func (f *FlashDrive) HandleOut(endpoint int, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.written += uint64(len(data))
}

// HandleIn implements Peripheral.
func (f *FlashDrive) HandleIn(endpoint int, maxLen int) []byte {
	return []byte{0} // CSW-style success status
}

// Written reports total bytes stored.
func (f *FlashDrive) Written() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}
