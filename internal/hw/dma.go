package hw

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// DMAAddr is a bus address within the DMA-visible memory arena. Address zero
// is reserved and never returned by Alloc, so it can act as a null bus
// address in descriptor rings.
type DMAAddr uint32

// DMAMemory is a flat arena of memory visible to both drivers (via the
// kernel's DMA mapping interface) and device models (which read descriptor
// rings and packet buffers directly, as bus-mastering hardware would).
type DMAMemory struct {
	mu   sync.Mutex
	mem  []byte
	next DMAAddr
	// allocations maps base address to length, for double-free/bounds checks.
	allocations map[DMAAddr]int
}

// NewDMAMemory creates an arena of the given size in bytes.
func NewDMAMemory(size int) *DMAMemory {
	if size <= 0 {
		panic("hw: DMA arena size must be positive")
	}
	return &DMAMemory{
		mem:         make([]byte, size),
		next:        64, // keep address 0 (and a small guard region) unused
		allocations: make(map[DMAAddr]int),
	}
}

// Size reports the arena size in bytes.
func (d *DMAMemory) Size() int { return len(d.mem) }

// Alloc reserves size bytes, aligned to align (which must be a power of two;
// 0 means 64). It returns the bus address of the allocation.
func (d *DMAMemory) Alloc(size, align int) (DMAAddr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("hw: DMA alloc of %d bytes", size)
	}
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("hw: DMA alignment %d not a power of two", align)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	base := (int(d.next) + align - 1) &^ (align - 1)
	if base+size > len(d.mem) {
		return 0, fmt.Errorf("hw: DMA arena exhausted (%d bytes requested, %d free)", size, len(d.mem)-base)
	}
	addr := DMAAddr(base)
	d.next = DMAAddr(base + size)
	d.allocations[addr] = size
	return addr, nil
}

// Free releases an allocation made by Alloc. The arena is a bump allocator,
// so Free only validates and unregisters the block; space is not recycled.
func (d *DMAMemory) Free(addr DMAAddr) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.allocations[addr]; !ok {
		return fmt.Errorf("hw: DMA free of unallocated address %#x", uint32(addr))
	}
	delete(d.allocations, addr)
	return nil
}

// InUse reports the number of live allocations (for leak tests).
func (d *DMAMemory) InUse() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.allocations)
}

// CheckRange panics unless [addr, addr+n) lies inside the arena — the fault
// every access takes on a bad bus address. A device model calls it for a
// buffer a descriptor names but whose bytes it has no reason to copy out.
func (d *DMAMemory) CheckRange(addr DMAAddr, n int) {
	if int(addr)+n > len(d.mem) || n < 0 {
		panic(fmt.Sprintf("hw: DMA access [%#x,%#x) outside arena of %d bytes",
			uint32(addr), int(addr)+n, len(d.mem)))
	}
}

// Read copies n bytes starting at addr into a fresh slice.
func (d *DMAMemory) Read(addr DMAAddr, n int) []byte {
	d.CheckRange(addr, n)
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, n)
	copy(out, d.mem[addr:int(addr)+n])
	return out
}

// ReadInto copies len(dst) bytes starting at addr into dst: the per-packet
// read, into memory the caller already owns.
//
//decaf:hotpath
func (d *DMAMemory) ReadInto(addr DMAAddr, dst []byte) {
	d.CheckRange(addr, len(dst))
	d.mu.Lock()
	defer d.mu.Unlock()
	copy(dst, d.mem[addr:int(addr)+len(dst)])
}

// Write copies src into the arena starting at addr.
//
//decaf:hotpath
func (d *DMAMemory) Write(addr DMAAddr, src []byte) {
	d.CheckRange(addr, len(src))
	d.mu.Lock()
	defer d.mu.Unlock()
	copy(d.mem[addr:int(addr)+len(src)], src)
}

// Read8 reads one byte at addr.
func (d *DMAMemory) Read8(addr DMAAddr) uint8 {
	d.CheckRange(addr, 1)
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mem[addr]
}

// Write8 writes one byte at addr.
func (d *DMAMemory) Write8(addr DMAAddr, v uint8) {
	d.CheckRange(addr, 1)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mem[addr] = v
}

// Read16 reads a little-endian 16-bit value at addr.
func (d *DMAMemory) Read16(addr DMAAddr) uint16 {
	d.CheckRange(addr, 2)
	d.mu.Lock()
	defer d.mu.Unlock()
	return binary.LittleEndian.Uint16(d.mem[addr:])
}

// Write16 writes a little-endian 16-bit value at addr.
func (d *DMAMemory) Write16(addr DMAAddr, v uint16) {
	d.CheckRange(addr, 2)
	d.mu.Lock()
	defer d.mu.Unlock()
	binary.LittleEndian.PutUint16(d.mem[addr:], v)
}

// Read32 reads a little-endian 32-bit value at addr.
func (d *DMAMemory) Read32(addr DMAAddr) uint32 {
	d.CheckRange(addr, 4)
	d.mu.Lock()
	defer d.mu.Unlock()
	return binary.LittleEndian.Uint32(d.mem[addr:])
}

// Write32 writes a little-endian 32-bit value at addr.
func (d *DMAMemory) Write32(addr DMAAddr, v uint32) {
	d.CheckRange(addr, 4)
	d.mu.Lock()
	defer d.mu.Unlock()
	binary.LittleEndian.PutUint32(d.mem[addr:], v)
}

// Write64 writes a little-endian 64-bit value at addr.
func (d *DMAMemory) Write64(addr DMAAddr, v uint64) {
	d.CheckRange(addr, 8)
	d.mu.Lock()
	defer d.mu.Unlock()
	binary.LittleEndian.PutUint64(d.mem[addr:], v)
}
