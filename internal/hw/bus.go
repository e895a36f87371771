// Package hw simulates the hardware substrate the Decaf drivers run against:
// a PCI bus with per-device configuration space, port I/O and memory-mapped
// I/O windows, DMA-visible memory, and interrupt lines.
//
// The paper evaluates on physical devices (Intel E1000, RTL-8139, Ensoniq
// ES1371, UHCI controller, PS/2 mouse). This package provides register-level
// models with the same programming interfaces those drivers use, so the
// driver code paths — register access, descriptor-ring management, interrupt
// handling — execute unchanged against the models.
package hw

import (
	"fmt"
	"sync"

	"decafdrivers/internal/ktime"
)

// Bus is the root of the simulated hardware: it owns DMA memory, the port
// I/O space and interrupt lines, and PCI devices attach to it.
type Bus struct {
	mu    sync.Mutex
	clock *ktime.Clock
	dma   *DMAMemory
	ports map[uint16]PortHandler
	irqs  map[int]*IRQLine
}

// NewBus creates a bus with the given virtual clock and dmaSize bytes of
// DMA-visible memory.
func NewBus(clock *ktime.Clock, dmaSize int) *Bus {
	return &Bus{
		clock: clock,
		dma:   NewDMAMemory(dmaSize),
		ports: make(map[uint16]PortHandler),
		irqs:  make(map[int]*IRQLine),
	}
}

// Clock returns the virtual clock driving the bus.
func (b *Bus) Clock() *ktime.Clock { return b.clock }

// DMA returns the DMA-visible memory arena shared by drivers and devices.
func (b *Bus) DMA() *DMAMemory { return b.dma }

// IRQ returns (creating if needed) the interrupt line with the given number.
func (b *Bus) IRQ(num int) *IRQLine {
	b.mu.Lock()
	defer b.mu.Unlock()
	line, ok := b.irqs[num]
	if !ok {
		line = newIRQLine(num)
		b.irqs[num] = line
	}
	return line
}

// Attach attaches a PCI device to the bus. It panics if the device is nil
// or already attached.
func (b *Bus) Attach(dev *PCIDevice) {
	if dev == nil {
		panic("hw: Attach(nil)")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if dev.bus != nil {
		panic(fmt.Sprintf("hw: device %s already attached", dev.Name))
	}
	dev.bus = b
}

// PortHandler services port I/O for a contiguous range of ports registered
// by a device. Offset is relative to the range base. Size is 1, 2 or 4.
type PortHandler interface {
	PortRead(offset uint16, size int) uint32
	PortWrite(offset uint16, size int, value uint32)
}

// RegisterPorts claims [base, base+size) in the port I/O space for handler.
// It panics on overlap with an existing claim.
func (b *Bus) RegisterPorts(base, size uint16, handler PortHandler) {
	if handler == nil {
		panic("hw: RegisterPorts with nil handler")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for p := base; p < base+size; p++ {
		if _, ok := b.ports[p]; ok {
			panic(fmt.Sprintf("hw: port %#x already claimed", p))
		}
		b.ports[p] = boundPort{base: base, h: handler}
	}
}

type boundPort struct {
	base uint16
	h    PortHandler
}

func (bp boundPort) PortRead(offset uint16, size int) uint32 {
	return bp.h.PortRead(offset, size)
}

func (bp boundPort) PortWrite(offset uint16, size int, value uint32) {
	bp.h.PortWrite(offset, size, value)
}

func (b *Bus) portAt(port uint16) (PortHandler, uint16, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := b.ports[port]
	if !ok {
		return nil, 0, false
	}
	bp := h.(boundPort)
	return bp.h, port - bp.base, true
}

// Inb reads one byte from a port. Unclaimed ports read as all-ones, the
// conventional floating-bus value.
func (b *Bus) Inb(port uint16) uint8 {
	h, off, ok := b.portAt(port)
	if !ok {
		return 0xFF
	}
	return uint8(h.PortRead(off, 1))
}

// Inw reads a 16-bit word from a port.
func (b *Bus) Inw(port uint16) uint16 {
	h, off, ok := b.portAt(port)
	if !ok {
		return 0xFFFF
	}
	return uint16(h.PortRead(off, 2))
}

// Inl reads a 32-bit longword from a port.
func (b *Bus) Inl(port uint16) uint32 {
	h, off, ok := b.portAt(port)
	if !ok {
		return 0xFFFFFFFF
	}
	return h.PortRead(off, 4)
}

// Outb writes one byte to a port. Writes to unclaimed ports are dropped.
func (b *Bus) Outb(port uint16, v uint8) {
	if h, off, ok := b.portAt(port); ok {
		h.PortWrite(off, 1, uint32(v))
	}
}

// Outw writes a 16-bit word to a port.
func (b *Bus) Outw(port uint16, v uint16) {
	if h, off, ok := b.portAt(port); ok {
		h.PortWrite(off, 2, uint32(v))
	}
}

// Outl writes a 32-bit longword to a port.
func (b *Bus) Outl(port uint16, v uint32) {
	if h, off, ok := b.portAt(port); ok {
		h.PortWrite(off, 4, v)
	}
}
