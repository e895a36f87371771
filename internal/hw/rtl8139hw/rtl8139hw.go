// Package rtl8139hw models the Realtek RTL-8139 fast Ethernet controller:
// a port-I/O programmed NIC with four round-robin transmit descriptors and a
// single contiguous receive ring, the device behind the paper's 8139too
// driver.
package rtl8139hw

import (
	"sync"

	"decafdrivers/internal/hw"
)

// PCI identity.
const (
	VendorID = 0x10EC
	DeviceID = 0x8139
)

// Register offsets (relative to the I/O BAR).
const (
	RegTSD0    = 0x10 // transmit status of descriptor 0 (4 descs, stride 4)
	RegTSAD0   = 0x20 // transmit start address of descriptor 0
	RegRBSTART = 0x30 // receive buffer start (DMA)
	RegCR      = 0x37 // command register
	RegCAPR    = 0x38 // current address of packet read
	RegCBR     = 0x3A // current buffer address (write cursor)
	RegIMR     = 0x3C // interrupt mask
	RegISR     = 0x3E // interrupt status
	Reg9346CR  = 0x50 // EEPROM (93C46) access
)

// Command register bits.
const (
	CmdBufEmpty = 1 << 0
	CmdTxEnable = 1 << 2
	CmdRxEnable = 1 << 3
	CmdReset    = 1 << 4
)

// Interrupt bits (ISR/IMR).
const (
	IntROK = 1 << 0
	IntTOK = 1 << 2
)

// TSD bits.
const (
	TSDOwn = 1 << 13 // host owns descriptor (set when transmit completes)
	TSDTok = 1 << 15
	// TSDSizeMask extracts the frame size from a TSD write.
	TSDSizeMask = 0x1FFF
)

// NumTxDesc is the fixed number of transmit descriptors.
const NumTxDesc = 4

// RxBufLen is the receive ring size the 8139too driver configures (32 KiB
// plus overflow slack).
const RxBufLen = 32*1024 + 16

// RxHeaderLen is the per-packet status header the device prepends.
const RxHeaderLen = 4

// EEPROMWords is the 93C46 capacity.
const EEPROMWords = 64

// Device is one simulated RTL-8139.
type Device struct {
	PCI *hw.PCIDevice

	mu     sync.Mutex
	dma    *hw.DMAMemory
	mac    [6]byte
	eeprom [EEPROMWords]uint16

	cmd      uint8
	imr, isr uint16
	tsd      [NumTxDesc]uint32
	tsad     [NumTxDesc]uint32
	rbstart  uint32
	capr     uint16
	cbr      uint16

	// eepromAddr latches the address for the simplified serial protocol.
	eepromAddr uint8
	eepromData uint16

	// OnTransmit observes frames leaving the adapter.
	OnTransmit func(frame []byte)

	txCount, rxCount, txBytes, rxBytes, rxDrops uint64
}

// New creates an RTL-8139, claims its I/O ports at ioBase, attaches it to
// the bus and wires its interrupt.
func New(bus *hw.Bus, irq int, ioBase uint16, mac [6]byte) *Device {
	d := &Device{dma: bus.DMA(), mac: mac}
	d.PCI = hw.NewPCIDevice("rtl8139", VendorID, DeviceID, 0x10)
	d.PCI.SetBAR(0, &hw.BAR{Base: uint32(ioBase), Size: 0x100, IsIO: true})
	bus.Attach(d.PCI)
	d.PCI.SetIRQ(bus.IRQ(irq))
	bus.RegisterPorts(ioBase, 0x100, d)

	// 93C46 contents: MAC in words 7..9 (the 8139 layout), id elsewhere.
	d.eeprom[0] = 0x8129
	for i := 0; i < 3; i++ {
		d.eeprom[7+i] = uint16(mac[2*i]) | uint16(mac[2*i+1])<<8
	}
	return d
}

// LinkUp reports link state: the model's link never goes down.
func (d *Device) LinkUp() bool { return true }

// Counters reports adapter-level traffic counts.
func (d *Device) Counters() (txFrames, txBytes, rxFrames, rxBytes, rxDrops uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.txCount, d.txBytes, d.rxCount, d.rxBytes, d.rxDrops
}

func (d *Device) raise(bits uint16) {
	d.mu.Lock()
	d.isr |= bits
	fire := d.isr&d.imr != 0
	d.mu.Unlock()
	if fire {
		d.PCI.RaiseIRQ()
	}
}

// PortRead implements hw.PortHandler.
func (d *Device) PortRead(off uint16, size int) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case off < 6:
		return uint32(d.mac[off])
	case off >= RegTSD0 && off < RegTSD0+4*NumTxDesc:
		return d.tsd[(off-RegTSD0)/4]
	case off == RegCR:
		cmd := d.cmd
		if d.rxEmptyLocked() {
			cmd |= CmdBufEmpty
		}
		return uint32(cmd)
	case off == RegCAPR:
		return uint32(d.capr)
	case off == RegCBR:
		return uint32(d.cbr)
	case off == RegIMR:
		return uint32(d.imr)
	case off == RegISR:
		return uint32(d.isr)
	case off == Reg9346CR:
		// Simplified serial EEPROM: the data latch reads back a word.
		return uint32(d.eepromData)
	default:
		return 0
	}
}

func (d *Device) rxEmptyLocked() bool {
	return d.cbr == d.readPtrLocked()
}

func (d *Device) readPtrLocked() uint16 {
	// CAPR is written as readPtr-16 by the driver, per the 8139 convention.
	return d.capr + 16
}

// PortWrite implements hw.PortHandler.
func (d *Device) PortWrite(off uint16, size int, v uint32) {
	switch {
	case off >= RegTSD0 && off < RegTSD0+4*NumTxDesc:
		d.transmit(int(off-RegTSD0)/4, v)
	case off >= RegTSAD0 && off < RegTSAD0+4*NumTxDesc:
		d.mu.Lock()
		d.tsad[(off-RegTSAD0)/4] = v
		d.mu.Unlock()
	case off == RegRBSTART:
		d.mu.Lock()
		d.rbstart = v
		d.cbr = 0
		d.capr = 0xFFF0 // so readPtr starts at 0
		d.mu.Unlock()
	case off == RegCR:
		d.command(uint8(v))
	case off == RegCAPR:
		d.mu.Lock()
		d.capr = uint16(v)
		d.mu.Unlock()
	case off == RegIMR:
		d.mu.Lock()
		d.imr = uint16(v)
		pending := d.isr&d.imr != 0
		d.mu.Unlock()
		if pending {
			d.PCI.RaiseIRQ()
		}
	case off == RegISR:
		// Writing 1s clears ISR bits.
		d.mu.Lock()
		d.isr &^= uint16(v)
		d.mu.Unlock()
	case off == Reg9346CR:
		// Simplified serial protocol: write (0x80 | addr) latches a read of
		// word addr into the data register.
		d.mu.Lock()
		if v&0x80 != 0 {
			d.eepromAddr = uint8(v) & 0x3F
			d.eepromData = d.eeprom[d.eepromAddr]
		}
		d.mu.Unlock()
	}
}

func (d *Device) command(v uint8) {
	if v&CmdReset != 0 {
		d.mu.Lock()
		d.cmd = 0
		d.isr, d.imr = 0, 0
		d.tsd = [NumTxDesc]uint32{}
		d.cbr, d.capr = 0, 0xFFF0
		d.mu.Unlock()
		return
	}
	d.mu.Lock()
	d.cmd = v &^ (CmdReset | CmdBufEmpty)
	d.mu.Unlock()
}

func (d *Device) transmit(idx int, tsdVal uint32) {
	size := int(tsdVal & TSDSizeMask)
	d.mu.Lock()
	if d.cmd&CmdTxEnable == 0 || size == 0 {
		d.tsd[idx] = tsdVal
		d.mu.Unlock()
		return
	}
	addr := hw.DMAAddr(d.tsad[idx])
	cb := d.OnTransmit
	d.mu.Unlock()
	// The frame's bytes leave DMA memory only when someone observes the
	// wire; unobserved, the buffer is range-checked, as the read would have.
	var frame []byte
	if cb != nil {
		frame = d.dma.Read(addr, size)
	} else {
		d.dma.CheckRange(addr, size)
	}

	d.mu.Lock()
	d.txCount++
	d.txBytes += uint64(size)
	d.tsd[idx] = tsdVal | TSDOwn | TSDTok
	d.mu.Unlock()
	if cb != nil {
		cb(frame)
	}
	d.raise(IntTOK)
}

// InjectRx delivers a frame from the wire into the receive ring: a 4-byte
// header (status, length incl. CRC) followed by the frame, dword-aligned,
// at the CBR cursor. Drops when the receiver is off or the ring would
// overflow.
func (d *Device) InjectRx(frame []byte) bool {
	d.mu.Lock()
	if d.cmd&CmdRxEnable == 0 {
		d.rxDrops++
		d.mu.Unlock()
		return false
	}
	// The ring is modeled without wraparound: cursors rewind to the start
	// whenever the driver has drained every pending packet, which holds as
	// long as the driver keeps up (the real ring wraps instead).
	if d.rxEmptyLocked() {
		d.cbr = 0
		d.capr = 0xFFF0
	}
	need := RxHeaderLen + len(frame) + 4 // header + frame + CRC
	need = (need + 3) &^ 3
	if int(d.cbr)+need > 32*1024 {
		d.rxDrops++
		d.mu.Unlock()
		return false
	}
	base := hw.DMAAddr(d.rbstart) + hw.DMAAddr(d.cbr)
	d.mu.Unlock()

	status := uint16(0x0001) // ROK
	d.dma.Write16(base, status)
	d.dma.Write16(base+2, uint16(len(frame)+4)) // length includes CRC
	d.dma.Write(base+RxHeaderLen, frame)

	d.mu.Lock()
	d.cbr += uint16(need)
	d.rxCount++
	d.rxBytes += uint64(len(frame))
	d.mu.Unlock()
	d.raise(IntROK)
	return true
}
