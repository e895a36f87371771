// Package e1000hw models the Intel 8254x (E1000) gigabit Ethernet
// controller at register level: PCI identity, EEPROM via EERD, PHY via MDIC,
// legacy transmit/receive descriptor rings serviced by bus-master DMA, and
// the ICR/IMS/IMC interrupt block. The E1000 driver (the paper's case-study
// driver) programs this model exactly as it would the silicon.
package e1000hw

import (
	"encoding/binary"
	"sync"

	"decafdrivers/internal/hw"
)

// PCI identity of the modeled part (82540EM desktop adapter).
const (
	VendorID = 0x8086
	DeviceID = 0x100E
)

// Register offsets (subset of the 8254x software developer's manual).
const (
	RegCTRL   = 0x0000
	RegSTATUS = 0x0008
	RegEERD   = 0x0014
	RegMDIC   = 0x0020
	RegICR    = 0x00C0
	RegIMS    = 0x00D0
	RegIMC    = 0x00D8
	RegRCTL   = 0x0100
	RegTCTL   = 0x0400
	RegRDBAL  = 0x2800
	RegRDLEN  = 0x2808
	RegRDH    = 0x2810
	RegRDT    = 0x2818
	RegTDBAL  = 0x3800
	RegTDLEN  = 0x3808
	RegTDH    = 0x3810
	RegTDT    = 0x3818
	RegGPTC   = 0x4080 // good packets transmitted
	RegGPRC   = 0x4074 // good packets received
)

// CTRL bits.
const (
	CtrlRST = 1 << 26
	CtrlSLU = 1 << 6
)

// STATUS bits.
const (
	StatusLU = 1 << 1
)

// Interrupt cause bits.
const (
	IntTXDW = 1 << 0 // transmit descriptor written back
	IntLSC  = 1 << 2 // link status change
	IntRXT0 = 1 << 7 // receiver timer / packet received
)

// RCTL/TCTL enable bits.
const (
	RctlEN = 1 << 1
	TctlEN = 1 << 1
)

// EERD bits: write (addr<<8 | Start), poll Done, data in bits 16..31.
const (
	EerdStart = 1 << 0
	EerdDone  = 1 << 4
)

// MDIC fields.
const (
	MdicOpWrite = 1 << 26
	MdicOpRead  = 2 << 26
	MdicReady   = 1 << 28
	MdicError   = 1 << 30
)

// PHY registers (MII standard).
const (
	PhyCtrl   = 0
	PhyStatus = 1
	PhyID1    = 2
	PhyID2    = 3
)

// PHY status bits.
const (
	PhyStatusLink        = 1 << 2
	PhyStatusAutoNegDone = 1 << 5
)

// Descriptor sizes (legacy format).
const (
	TxDescSize = 16
	RxDescSize = 16
)

// Legacy descriptor layout, shared by both rings: buffer address in bytes
// 0-7, length in 8-9, and the status byte at 12. A TX descriptor carries its
// command byte at 11. Device and driver move a descriptor with one DMA
// access over the bytes they need, not one access per field.
const (
	DescAddrOff   = 0
	DescLengthOff = 8
	TxDescCmdOff  = 11
	DescStatusOff = 12
)

// TX descriptor command/status bits.
const (
	TxCmdEOP    = 1 << 0
	TxCmdRS     = 1 << 3
	TxStatusDD  = 1 << 0
	RxStatusDD  = 1 << 0
	RxStatusEOP = 1 << 1
)

// EEPROM layout: MAC in words 0-2; checksum word 0x3F makes the sum BABA.
const (
	EEPROMWords    = 64
	EEPROMChecksum = 0xBABA
)

// barSize is the size of the register BAR: 128 KiB, as on the silicon.
const barSize = 0x20000

// Device is one simulated E1000 controller.
type Device struct {
	PCI *hw.PCIDevice

	mu  sync.Mutex
	dma *hw.DMAMemory
	// regs is the register file: one cell per aligned dword of the BAR,
	// indexed by offset/4, so the registers the data path touches on every
	// packet are an array access under the device lock. Named registers
	// index it with their constants; an offset that arrives over MMIO goes
	// through load/store, which check it.
	regs [barSize / 4]uint32
	// stray holds writes to offsets the register file does not model
	// (unaligned, or past the BAR): they read back as written, as every
	// offset did when the file was a map. No driver produces one and
	// PCIDevice refuses those past the BAR, so it is nil unless the handler
	// is called directly.
	stray  map[uint32]uint32
	eeprom [EEPROMWords]uint16
	phy    [32]uint16

	linkUp bool

	// intrBatch models the interrupt-throttle register (ITR): TXDW and
	// RXT0 causes are delivered once per intrBatch events. 1 (the default)
	// interrupts on every event.
	intrBatch int
	txPend    int
	rxPend    int

	// OnTransmit observes every frame leaving the adapter (the wire).
	OnTransmit func(frame []byte)

	txCount uint64
	rxCount uint64
	txBytes uint64
	rxBytes uint64
	rxDrops uint64
}

// New creates an E1000 with the given MAC address, attaches it to the bus,
// and wires its interrupt line.
func New(bus *hw.Bus, irq int, mac [6]byte) *Device {
	d := &Device{
		dma:       bus.DMA(),
		intrBatch: 1,
	}
	d.PCI = hw.NewPCIDevice("e1000", VendorID, DeviceID, 2)
	d.PCI.SetBAR(0, &hw.BAR{Base: 0xF0000000, Size: barSize, Handler: d})
	bus.Attach(d.PCI)
	d.PCI.SetIRQ(bus.IRQ(irq))

	// Program the EEPROM: MAC words then pad, checksum last.
	d.eeprom[0] = uint16(mac[0]) | uint16(mac[1])<<8
	d.eeprom[1] = uint16(mac[2]) | uint16(mac[3])<<8
	d.eeprom[2] = uint16(mac[4]) | uint16(mac[5])<<8
	for i := 3; i < EEPROMWords-1; i++ {
		d.eeprom[i] = uint16(0x1100 + i)
	}
	var sum uint16
	for i := 0; i < EEPROMWords-1; i++ {
		sum += d.eeprom[i]
	}
	d.eeprom[EEPROMWords-1] = EEPROMChecksum - sum

	d.phy[PhyID1] = 0x0141 // Intel PHY OUI
	d.phy[PhyID2] = 0x0CB0
	return d
}

// SetLink changes link state, updating STATUS.LU and PHY status and raising
// a link-status-change interrupt.
func (d *Device) SetLink(up bool) {
	d.mu.Lock()
	d.linkUp = up
	if up {
		d.regs[RegSTATUS/4] |= StatusLU
		d.phy[PhyStatus] |= PhyStatusLink | PhyStatusAutoNegDone
	} else {
		d.regs[RegSTATUS/4] &^= StatusLU
		d.phy[PhyStatus] &^= PhyStatusLink
	}
	d.mu.Unlock()
	d.cause(IntLSC)
}

// LinkUp reports the modeled link state.
func (d *Device) LinkUp() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.linkUp
}

// Counters reports frames and bytes moved by the adapter.
func (d *Device) Counters() (txFrames, txBytes, rxFrames, rxBytes, rxDrops uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.txCount, d.txBytes, d.rxCount, d.rxBytes, d.rxDrops
}

// SetIntrBatch programs the interrupt-throttle model: TXDW/RXT0 deliver
// once per n events. Real hardware exposes this as the ITR register; the
// e1000 driver programs it at open to keep interrupt overhead off the data
// path.
func (d *Device) SetIntrBatch(n int) {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	d.intrBatch = n
	d.mu.Unlock()
}

// cause latches interrupt bits and raises the line if unmasked. TXDW and
// RXT0 pass through the throttle; other causes (LSC) deliver immediately.
func (d *Device) cause(bits uint32) {
	d.mu.Lock()
	deliver := bits &^ (IntTXDW | IntRXT0)
	if bits&IntTXDW != 0 {
		d.txPend++
		if d.txPend >= d.intrBatch {
			d.txPend = 0
			deliver |= IntTXDW
		}
	}
	if bits&IntRXT0 != 0 {
		d.rxPend++
		if d.rxPend >= d.intrBatch {
			d.rxPend = 0
			deliver |= IntRXT0
		}
	}
	if deliver == 0 {
		d.mu.Unlock()
		return
	}
	d.regs[RegICR/4] |= deliver
	fire := d.regs[RegICR/4]&d.regs[RegIMS/4] != 0
	d.mu.Unlock()
	if fire {
		d.PCI.RaiseIRQ()
	}
}

// MMIORead implements hw.MMIOHandler.
func (d *Device) MMIORead(off uint32, size int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch off {
	case RegICR:
		// Reading ICR clears it, per the manual.
		v := d.regs[RegICR/4]
		d.regs[RegICR/4] = 0
		return uint64(v)
	default:
		return uint64(d.load(off))
	}
}

// load reads the register at an MMIO offset; the caller holds d.mu.
func (d *Device) load(off uint32) uint32 {
	if off%4 == 0 && off < barSize {
		return d.regs[off/4]
	}
	return d.stray[off]
}

// store writes the register at an MMIO offset; the caller holds d.mu.
func (d *Device) store(off, v uint32) {
	if off%4 == 0 && off < barSize {
		d.regs[off/4] = v
		return
	}
	if d.stray == nil {
		d.stray = make(map[uint32]uint32)
	}
	d.stray[off] = v
}

// MMIOWrite implements hw.MMIOHandler.
func (d *Device) MMIOWrite(off uint32, size int, val uint64) {
	v := uint32(val)
	switch off {
	case RegCTRL:
		if v&CtrlRST != 0 {
			d.reset()
			return
		}
		d.mu.Lock()
		d.regs[RegCTRL/4] = v &^ CtrlRST
		d.mu.Unlock()
	case RegEERD:
		d.mu.Lock()
		if v&EerdStart != 0 {
			addr := (v >> 8) & 0xFF
			var data uint16
			if addr < EEPROMWords {
				data = d.eeprom[addr]
			}
			d.regs[RegEERD/4] = uint32(data)<<16 | EerdDone | (addr << 8)
		}
		d.mu.Unlock()
	case RegMDIC:
		d.mdic(v)
	case RegIMS:
		d.mu.Lock()
		d.regs[RegIMS/4] |= v
		pending := d.regs[RegICR/4]&d.regs[RegIMS/4] != 0
		d.mu.Unlock()
		if pending {
			d.PCI.RaiseIRQ()
		}
	case RegIMC:
		d.mu.Lock()
		d.regs[RegIMS/4] &^= v
		d.mu.Unlock()
	case RegTDT:
		d.mu.Lock()
		d.regs[RegTDT/4] = v
		d.mu.Unlock()
		d.processTx()
	default:
		d.mu.Lock()
		d.store(off, v)
		d.mu.Unlock()
	}
}

func (d *Device) reset() {
	d.mu.Lock()
	link := d.linkUp
	clear(d.regs[:])
	d.stray = nil
	if link {
		d.regs[RegSTATUS/4] |= StatusLU
	}
	d.mu.Unlock()
}

func (d *Device) mdic(v uint32) {
	reg := (v >> 16) & 0x1F
	d.mu.Lock()
	switch {
	case v&MdicOpWrite != 0:
		d.phy[reg] = uint16(v)
		d.regs[RegMDIC/4] = v | MdicReady
	case v&MdicOpRead != 0:
		d.regs[RegMDIC/4] = (v &^ 0xFFFF) | uint32(d.phy[reg]) | MdicReady
	default:
		d.regs[RegMDIC/4] = v | MdicError | MdicReady
	}
	d.mu.Unlock()
}

// processTx walks descriptors from TDH to TDT, transmitting each buffer,
// writing back DD status, and raising TXDW. A frame's bytes leave DMA memory
// only when someone observes the wire: with no OnTransmit the buffer is
// range-checked, as the read would have, and counted, not copied.
func (d *Device) processTx() {
	d.mu.Lock()
	if d.regs[RegTCTL/4]&TctlEN == 0 {
		d.mu.Unlock()
		return
	}
	base := hw.DMAAddr(d.regs[RegTDBAL/4])
	count := d.regs[RegTDLEN/4] / TxDescSize
	head := d.regs[RegTDH/4]
	tail := d.regs[RegTDT/4]
	d.mu.Unlock()
	if count == 0 {
		return
	}

	sent := 0
	var desc [TxDescSize]byte
	for head != tail {
		descAddr := base + hw.DMAAddr(head*TxDescSize)
		d.dma.ReadInto(descAddr, desc[:])
		bufAddr := hw.DMAAddr(binary.LittleEndian.Uint64(desc[DescAddrOff:]))
		length := int(binary.LittleEndian.Uint16(desc[DescLengthOff:]))

		d.mu.Lock()
		d.txCount++
		d.txBytes += uint64(length)
		d.regs[RegGPTC/4]++
		cb := d.OnTransmit
		d.mu.Unlock()
		if cb != nil {
			cb(d.dma.Read(bufAddr, length))
		} else {
			d.dma.CheckRange(bufAddr, length)
		}

		// Write back done status.
		d.dma.Write8(descAddr+DescStatusOff, desc[DescStatusOff]|TxStatusDD)

		head = (head + 1) % count
		sent++
	}
	d.mu.Lock()
	d.regs[RegTDH/4] = head
	d.mu.Unlock()
	if sent > 0 {
		d.cause(IntTXDW)
	}
}

// InjectRx delivers one frame from the wire into the receive ring, as the
// DMA engine would: the frame lands in the buffer of the descriptor at RDH,
// length and status are written back, RDH advances, and RXT0 is raised.
// Frames arriving with the receiver disabled or the ring full are dropped
// (and counted).
func (d *Device) InjectRx(frame []byte) bool {
	d.mu.Lock()
	if d.regs[RegRCTL/4]&RctlEN == 0 {
		d.rxDrops++
		d.mu.Unlock()
		return false
	}
	base := hw.DMAAddr(d.regs[RegRDBAL/4])
	count := d.regs[RegRDLEN/4] / RxDescSize
	head := d.regs[RegRDH/4]
	tail := d.regs[RegRDT/4]
	if count == 0 || head == tail { // ring empty of free descriptors
		d.rxDrops++
		d.mu.Unlock()
		return false
	}
	descAddr := base + hw.DMAAddr(head*RxDescSize)
	var desc [RxDescSize]byte
	d.dma.ReadInto(descAddr, desc[:])
	d.mu.Unlock()

	d.dma.Write(hw.DMAAddr(binary.LittleEndian.Uint64(desc[DescAddrOff:])), frame)
	// Write-back: length and status in one access; the checksum bytes
	// between them go back as they were read.
	binary.LittleEndian.PutUint16(desc[DescLengthOff:], uint16(len(frame)))
	desc[DescStatusOff] = RxStatusDD | RxStatusEOP
	d.dma.Write(descAddr+DescLengthOff, desc[DescLengthOff:DescStatusOff+1])

	d.mu.Lock()
	d.regs[RegRDH/4] = (head + 1) % count
	d.rxCount++
	d.rxBytes += uint64(len(frame))
	d.regs[RegGPRC/4]++
	d.mu.Unlock()
	d.cause(IntRXT0)
	return true
}

// EEPROMChecksumValid recomputes the checksum the driver verifies at probe.
func (d *Device) EEPROMChecksumValid() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	var sum uint16
	for _, w := range d.eeprom {
		sum += w
	}
	return sum == EEPROMChecksum
}

// CorruptEEPROM flips a word so the checksum fails — fault injection for the
// probe error path.
func (d *Device) CorruptEEPROM() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.eeprom[5] ^= 0xFFFF
}
