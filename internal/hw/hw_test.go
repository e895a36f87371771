package hw

import (
	"testing"
	"testing/quick"

	"decafdrivers/internal/ktime"
)

func newTestBus() *Bus {
	return NewBus(ktime.NewClock(), 1<<20)
}

func TestDMAAllocAlignment(t *testing.T) {
	d := NewDMAMemory(1 << 16)
	for _, align := range []int{0, 1, 2, 4, 16, 64, 4096} {
		a, err := d.Alloc(100, align)
		if err != nil {
			t.Fatalf("Alloc(100, %d): %v", align, err)
		}
		want := align
		if want == 0 {
			want = 64
		}
		if int(a)%want != 0 {
			t.Fatalf("Alloc align %d returned %#x", align, uint32(a))
		}
		if a == 0 {
			t.Fatal("Alloc returned reserved null address 0")
		}
	}
}

func TestDMAAllocExhaustion(t *testing.T) {
	d := NewDMAMemory(256)
	if _, err := d.Alloc(1024, 1); err == nil {
		t.Fatal("oversized Alloc succeeded")
	}
}

func TestDMAAllocBadAlign(t *testing.T) {
	d := NewDMAMemory(256)
	if _, err := d.Alloc(8, 3); err == nil {
		t.Fatal("Alloc with non-power-of-two align succeeded")
	}
}

func TestDMAFreeTracking(t *testing.T) {
	d := NewDMAMemory(1 << 12)
	a, err := d.Alloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", d.InUse())
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err == nil {
		t.Fatal("double Free succeeded")
	}
	if d.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", d.InUse())
	}
}

func TestDMAReadWriteRoundTrip(t *testing.T) {
	d := NewDMAMemory(1 << 12)
	a, _ := d.Alloc(64, 0)
	d.Write32(a, 0xDEADBEEF)
	if got := d.Read32(a); got != 0xDEADBEEF {
		t.Fatalf("Read32 = %#x", got)
	}
	d.Write64(a+8, 0x0123456789ABCDEF)
	if got := uint64(d.Read32(a+8)) | uint64(d.Read32(a+12))<<32; got != 0x0123456789ABCDEF {
		t.Fatalf("Write64 stored %#x", got)
	}
	d.Write16(a+16, 0xBEEF)
	if got := d.Read16(a + 16); got != 0xBEEF {
		t.Fatalf("Read16 = %#x", got)
	}
	d.Write8(a+20, 0x5A)
	if got := d.Read8(a + 20); got != 0x5A {
		t.Fatalf("Read8 = %#x", got)
	}
	buf := []byte{1, 2, 3, 4, 5}
	d.Write(a+32, buf)
	if got := d.Read(a+32, 5); string(got) != string(buf) {
		t.Fatalf("Read = %v, want %v", got, buf)
	}
}

func TestDMAOutOfBoundsPanics(t *testing.T) {
	d := NewDMAMemory(128)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds DMA access did not panic")
		}
	}()
	d.Read32(DMAAddr(126))
}

// Property: little-endian round trips for all 32-bit values at all aligned
// offsets preserve the value.
func TestDMAWord32Property(t *testing.T) {
	d := NewDMAMemory(1 << 10)
	f := func(v uint32, off uint8) bool {
		addr := DMAAddr(uint32(off) * 4)
		d.Write32(addr, v)
		return d.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

type echoPorts struct {
	regs [16]uint32
}

func (e *echoPorts) PortRead(off uint16, size int) uint32     { return e.regs[off/4] }
func (e *echoPorts) PortWrite(off uint16, size int, v uint32) { e.regs[off/4] = v }

func TestPortIORouting(t *testing.T) {
	b := newTestBus()
	e := &echoPorts{}
	b.RegisterPorts(0x300, 64, e)
	b.Outl(0x300, 0xAABBCCDD)
	if got := b.Inl(0x300); got != 0xAABBCCDD {
		t.Fatalf("Inl = %#x", got)
	}
	b.Outl(0x304, 7)
	if e.regs[1] != 7 {
		t.Fatalf("offset routing wrong: regs[1]=%d", e.regs[1])
	}
	// Unclaimed ports float high.
	if got := b.Inb(0x500); got != 0xFF {
		t.Fatalf("unclaimed Inb = %#x, want 0xFF", got)
	}
	if got := b.Inw(0x500); got != 0xFFFF {
		t.Fatalf("unclaimed Inw = %#x", got)
	}
	if got := b.Inl(0x500); got != 0xFFFFFFFF {
		t.Fatalf("unclaimed Inl = %#x", got)
	}
	b.Outb(0x500, 1) // dropped, no panic
}

func TestPortOverlapPanics(t *testing.T) {
	b := newTestBus()
	b.RegisterPorts(0x100, 16, &echoPorts{})
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping port registration did not panic")
		}
	}()
	b.RegisterPorts(0x108, 16, &echoPorts{})
}

func TestIRQDelivery(t *testing.T) {
	b := newTestBus()
	line := b.IRQ(11)
	if line.Num() != 11 {
		t.Fatalf("Num = %d", line.Num())
	}
	count := 0
	line.SetHandler(func() { count++ })
	line.Raise()
	if count != 1 {
		t.Fatalf("handler ran %d times, want 1", count)
	}
	raised, handled := line.Stats()
	if raised != 1 || handled != 1 {
		t.Fatalf("stats = %d,%d", raised, handled)
	}
}

func TestIRQLatchWhileDisabled(t *testing.T) {
	b := newTestBus()
	line := b.IRQ(5)
	count := 0
	line.SetHandler(func() { count++ })
	line.Disable()
	line.Raise()
	line.Raise() // level-triggered: coalesces
	if count != 0 {
		t.Fatal("handler ran while disabled")
	}
	if !line.Disabled() {
		t.Fatal("Disabled() = false")
	}
	line.Enable()
	if count != 1 {
		t.Fatalf("latched interrupt delivered %d times, want 1", count)
	}
}

func TestIRQNestedDisable(t *testing.T) {
	b := newTestBus()
	line := b.IRQ(5)
	count := 0
	line.SetHandler(func() { count++ })
	line.Disable()
	line.Disable()
	line.Raise()
	line.Enable()
	if count != 0 {
		t.Fatal("delivered while still nested-disabled")
	}
	line.Enable()
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
}

func TestIRQUnbalancedEnablePanics(t *testing.T) {
	b := newTestBus()
	line := b.IRQ(9)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Enable did not panic")
		}
	}()
	line.Enable()
}

func TestIRQRaiseWithoutHandlerLatches(t *testing.T) {
	b := newTestBus()
	line := b.IRQ(3)
	line.Raise()
	count := 0
	line.SetHandler(func() { count++ })
	// Latched assert delivers when line transitions via disable/enable.
	line.Disable()
	line.Enable()
	if count != 1 {
		t.Fatalf("latched pre-handler interrupt delivered %d times, want 1", count)
	}
}

func TestPCIConfigDefaults(t *testing.T) {
	d := NewPCIDevice("e1000", 0x8086, 0x100E, 3)
	if d.ConfigRead16(PCIVendorID) != 0x8086 {
		t.Fatal("vendor ID not in config space")
	}
	if d.ConfigRead16(PCIDeviceID) != 0x100E {
		t.Fatal("device ID not in config space")
	}
	if d.config[PCIRevision] != 3 {
		t.Fatal("revision not in config space")
	}
}

func TestPCIAttachAndFind(t *testing.T) {
	b := newTestBus()
	d := NewPCIDevice("rtl8139", 0x10EC, 0x8139, 0x10)
	b.Attach(d)
	if d.bus != b {
		t.Fatalf("%s is not attached to this bus", d.Name)
	}
}

func TestPCIDoubleAttachPanics(t *testing.T) {
	b := newTestBus()
	d := NewPCIDevice("x", 1, 2, 0)
	b.Attach(d)
	defer func() {
		if recover() == nil {
			t.Fatal("double Attach did not panic")
		}
	}()
	b.Attach(d)
}

func TestPCIBusMaster(t *testing.T) {
	d := NewPCIDevice("x", 1, 2, 0)
	if d.ConfigRead16(PCICommand)&PCICommandMaster != 0 {
		t.Fatal("bus master on by default")
	}
	d.EnableBusMaster()
	if d.ConfigRead16(PCICommand)&PCICommandMaster == 0 {
		t.Fatal("EnableBusMaster had no effect")
	}
}

type mmioEcho struct{ last uint64 }

func (m *mmioEcho) MMIORead(off uint32, size int) uint64     { return m.last + uint64(off) }
func (m *mmioEcho) MMIOWrite(off uint32, size int, v uint64) { m.last = v }

func TestPCIBARAndMMIO(t *testing.T) {
	d := NewPCIDevice("x", 1, 2, 0)
	h := &mmioEcho{}
	d.SetBAR(0, &BAR{Base: 0xF0000000, Size: 0x1000, Handler: h})
	if got := d.ConfigSnapshot()[PCIBAR0/4]; got != 0xF0000000 {
		t.Fatalf("BAR0 config value = %#x", got)
	}
	d.MMIOWrite(0, 0x10, 4, 42)
	if got := d.MMIORead(0, 8, 4); got != 50 {
		t.Fatalf("MMIORead = %d, want 50", got)
	}
	// Access through unset BAR floats high.
	if got := d.MMIORead(3, 0, 4); got != ^uint64(0) {
		t.Fatalf("unset BAR read = %#x", got)
	}
}

func TestPCIBARBoundsPanics(t *testing.T) {
	d := NewPCIDevice("x", 1, 2, 0)
	d.SetBAR(0, &BAR{Size: 16, Handler: &mmioEcho{}})
	defer func() {
		if recover() == nil {
			t.Fatal("MMIO access past BAR did not panic")
		}
	}()
	d.MMIORead(0, 16, 4)
}

// TestPCIBARBoundsNoWrap: offset+size is checked without wrapping, so an
// offset at the top of the 32-bit space is refused like any other past the BAR.
func TestPCIBARBoundsNoWrap(t *testing.T) {
	d := NewPCIDevice("x", 1, 2, 0)
	d.SetBAR(0, &BAR{Size: 16, Handler: &mmioEcho{}})
	for name, access := range map[string]func(){
		"read":  func() { d.MMIORead(0, 0xFFFFFFFC, 4) },
		"write": func() { d.MMIOWrite(0, 0xFFFFFFFC, 4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MMIO %s at 0xFFFFFFFC did not panic", name)
				}
			}()
			access()
		}()
	}
}

func TestPCIIOBARIndicatorBit(t *testing.T) {
	d := NewPCIDevice("x", 1, 2, 0)
	d.SetBAR(1, &BAR{Base: 0xC000, Size: 64, IsIO: true})
	if got := d.ConfigSnapshot()[PCIBAR0/4+1]; got&1 != 1 {
		t.Fatalf("I/O BAR missing indicator bit: %#x", got)
	}
}

func TestPCIConfigSnapshot(t *testing.T) {
	d := NewPCIDevice("x", 0x8086, 0x100E, 0)
	snap := d.ConfigSnapshot()
	if len(snap) != PCIConfigDwords {
		t.Fatalf("snapshot length %d", len(snap))
	}
	if snap[0] != 0x100E8086 {
		t.Fatalf("snapshot[0] = %#x, want vendor|device", snap[0])
	}
}

func TestPCIIRQWiring(t *testing.T) {
	b := newTestBus()
	d := NewPCIDevice("x", 1, 2, 0)
	b.Attach(d)
	line := b.IRQ(10)
	d.SetIRQ(line)
	if d.config[PCIIRQLine] != 10 {
		t.Fatal("IRQ line number not reflected in config space")
	}
	fired := false
	line.SetHandler(func() { fired = true })
	d.RaiseIRQ()
	if !fired {
		t.Fatal("RaiseIRQ did not deliver")
	}
}
