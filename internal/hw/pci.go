package hw

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Standard PCI configuration-space offsets used by the device models.
const (
	PCIVendorID  = 0x00
	PCIDeviceID  = 0x02
	PCICommand   = 0x04
	PCIStatus    = 0x06
	PCIRevision  = 0x08
	PCIClassCode = 0x09
	PCIBAR0      = 0x10
	PCIBAR1      = 0x14
	PCIBAR2      = 0x18
	PCISubVendor = 0x2C
	PCISubDevice = 0x2E
	PCIIRQLine   = 0x3C

	// PCIConfigSpaceLen is the size of the configuration space, and of the
	// config_space array the E1000 driver snapshots during initialization —
	// 64 dwords, the PCI_LEN annotation shown in the paper's Figure 3.
	PCIConfigSpaceLen = 256
	// PCIConfigDwords is PCIConfigSpaceLen expressed in 32-bit words.
	PCIConfigDwords = PCIConfigSpaceLen / 4
)

// PCI command register bits.
const (
	PCICommandIO     = 0x1
	PCICommandMemory = 0x2
	PCICommandMaster = 0x4
)

// MMIOHandler services memory-mapped register access for a device BAR.
// Offset is relative to the BAR base; size is 1, 2, 4 or 8.
type MMIOHandler interface {
	MMIORead(offset uint32, size int) uint64
	MMIOWrite(offset uint32, size int, value uint64)
}

// BAR describes one base address register of a device.
type BAR struct {
	// Base is the assigned bus address of the window (zero until assigned).
	Base uint32
	// Size is the window size in bytes.
	Size uint32
	// IsIO marks the BAR as a port-I/O window rather than memory-mapped.
	IsIO bool
	// Handler services accesses to a memory BAR. Nil for I/O BARs, whose
	// accesses route through the bus port space.
	Handler MMIOHandler
}

// PCIDevice models one function on the simulated PCI bus: 256 bytes of
// configuration space, up to six BARs, and one interrupt line.
type PCIDevice struct {
	Name     string
	VendorID uint16
	DeviceID uint16

	mu     sync.Mutex
	config [PCIConfigSpaceLen]byte
	bars   [6]*BAR
	irq    *IRQLine
	bus    *Bus
	slot   int
}

// NewPCIDevice creates a device with the given identity and interrupt number.
// The device is not usable until attached to a bus and given its IRQ line.
func NewPCIDevice(name string, vendor, device uint16, revision uint8) *PCIDevice {
	d := &PCIDevice{Name: name, VendorID: vendor, DeviceID: device}
	binary.LittleEndian.PutUint16(d.config[PCIVendorID:], vendor)
	binary.LittleEndian.PutUint16(d.config[PCIDeviceID:], device)
	d.config[PCIRevision] = revision
	return d
}

// Slot reports the bus slot the device occupies (valid after Attach).
func (d *PCIDevice) Slot() int { return d.slot }

// Bus returns the bus the device is attached to, or nil.
func (d *PCIDevice) Bus() *Bus { return d.bus }

// SetIRQ wires the device to an interrupt line and records the line number
// in configuration space.
func (d *PCIDevice) SetIRQ(line *IRQLine) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.irq = line
	d.config[PCIIRQLine] = byte(line.Num())
}

// IRQ returns the device's interrupt line (nil if unset).
func (d *PCIDevice) IRQ() *IRQLine {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.irq
}

// RaiseIRQ asserts the device's interrupt line if bus mastering/interrupts
// are sensible; it is a no-op when no line is wired.
func (d *PCIDevice) RaiseIRQ() {
	if l := d.IRQ(); l != nil {
		l.Raise()
	}
}

// SetBAR installs a BAR at the given index and writes its assigned base into
// configuration space.
func (d *PCIDevice) SetBAR(index int, bar *BAR) {
	if index < 0 || index >= len(d.bars) {
		panic(fmt.Sprintf("hw: BAR index %d out of range", index))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bars[index] = bar
	val := bar.Base
	if bar.IsIO {
		val |= 1 // PCI I/O space indicator bit
	}
	binary.LittleEndian.PutUint32(d.config[PCIBAR0+4*index:], val)
}

// GetBAR returns the BAR at index, or nil.
func (d *PCIDevice) GetBAR(index int) *BAR {
	d.mu.Lock()
	defer d.mu.Unlock()
	if index < 0 || index >= len(d.bars) {
		return nil
	}
	return d.bars[index]
}

// ConfigRead8 reads one byte of configuration space.
func (d *PCIDevice) ConfigRead8(offset int) uint8 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.config[offset]
}

// ConfigRead16 reads a little-endian 16-bit configuration value.
func (d *PCIDevice) ConfigRead16(offset int) uint16 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return binary.LittleEndian.Uint16(d.config[offset:])
}

// ConfigRead32 reads a little-endian 32-bit configuration value.
func (d *PCIDevice) ConfigRead32(offset int) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return binary.LittleEndian.Uint32(d.config[offset:])
}

// ConfigWrite8 writes one byte of configuration space.
func (d *PCIDevice) ConfigWrite8(offset int, v uint8) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.config[offset] = v
}

// ConfigWrite16 writes a little-endian 16-bit configuration value.
func (d *PCIDevice) ConfigWrite16(offset int, v uint16) {
	d.mu.Lock()
	defer d.mu.Unlock()
	binary.LittleEndian.PutUint16(d.config[offset:], v)
}

// ConfigWrite32 writes a little-endian 32-bit configuration value.
func (d *PCIDevice) ConfigWrite32(offset int, v uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	binary.LittleEndian.PutUint32(d.config[offset:], v)
}

// ConfigSnapshot returns the full configuration space as 32-bit words — the
// shape of the e1000_adapter config_space array from the paper's Figure 3.
func (d *PCIDevice) ConfigSnapshot() [PCIConfigDwords]uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out [PCIConfigDwords]uint32
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(d.config[4*i:])
	}
	return out
}

// EnableBusMaster sets the command-register bits a driver sets with
// pci_set_master and pci_enable_device.
func (d *PCIDevice) EnableBusMaster() {
	cmd := d.ConfigRead16(PCICommand)
	d.ConfigWrite16(PCICommand, cmd|PCICommandIO|PCICommandMemory|PCICommandMaster)
}

// BusMasterEnabled reports whether bus mastering is on.
func (d *PCIDevice) BusMasterEnabled() bool {
	return d.ConfigRead16(PCICommand)&PCICommandMaster != 0
}

// MMIORead performs a memory-mapped read through the BAR containing the
// given absolute address. Reads outside any BAR return all-ones.
func (d *PCIDevice) MMIORead(barIndex int, offset uint32, size int) uint64 {
	bar := d.GetBAR(barIndex)
	if bar == nil || bar.Handler == nil {
		return ^uint64(0)
	}
	// Summed in 64 bits: an offset near the top must not wrap past the check.
	if uint64(offset)+uint64(size) > uint64(bar.Size) {
		panic(fmt.Sprintf("hw: MMIO read at %#x size %d beyond BAR%d size %#x of %s",
			offset, size, barIndex, bar.Size, d.Name))
	}
	return bar.Handler.MMIORead(offset, size)
}

// MMIOWrite performs a memory-mapped write through the given BAR.
func (d *PCIDevice) MMIOWrite(barIndex int, offset uint32, size int, value uint64) {
	bar := d.GetBAR(barIndex)
	if bar == nil || bar.Handler == nil {
		return
	}
	// Summed in 64 bits: an offset near the top must not wrap past the check.
	if uint64(offset)+uint64(size) > uint64(bar.Size) {
		panic(fmt.Sprintf("hw: MMIO write at %#x size %d beyond BAR%d size %#x of %s",
			offset, size, barIndex, bar.Size, d.Name))
	}
	bar.Handler.MMIOWrite(offset, size, value)
}
