package uhcihw

import (
	"testing"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/ktime"
)

const base = 0xE000

func newDev(t *testing.T) (*Device, *hw.Bus, *ktime.Clock, *FlashDrive) {
	t.Helper()
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 8<<20)
	d := New(bus, 10, base)
	f := &FlashDrive{}
	d.AttachPeripheral(0, f)
	return d, bus, clock, f
}

func TestRegistersAndReset(t *testing.T) {
	_, bus, _, _ := newDev(t)
	if bus.Inw(base+RegUSBSTS)&StsHalted == 0 {
		t.Fatal("fresh controller not halted")
	}
	if bus.Inw(base+RegPORTSC1)&PortConnect == 0 {
		t.Fatal("attached peripheral not reflected in PORTSC1")
	}
	bus.Outw(base+RegUSBINTR, 0xF)
	bus.Outw(base+RegUSBCMD, CmdHCReset)
	if bus.Inw(base+RegUSBINTR) != 0 {
		t.Fatal("reset did not clear USBINTR")
	}
	if bus.Inw(base+RegUSBSTS)&StsHalted == 0 {
		t.Fatal("controller not halted after reset")
	}
}

func TestHaltedNotWriteClearable(t *testing.T) {
	_, bus, _, _ := newDev(t)
	bus.Outw(base+RegUSBSTS, 0xFFFF)
	if bus.Inw(base+RegUSBSTS)&StsHalted == 0 {
		t.Fatal("software cleared HCHalted")
	}
}

func TestPortResetEnablesAttachedDevice(t *testing.T) {
	_, bus, _, _ := newDev(t)
	bus.Outw(base+RegPORTSC1, PortReset)
	if bus.Inw(base+RegPORTSC1)&PortReset == 0 {
		t.Fatal("reset bit not latched")
	}
	bus.Outw(base+RegPORTSC1, 0)
	sc := bus.Inw(base + RegPORTSC1)
	if sc&PortEnable == 0 {
		t.Fatalf("port not enabled after reset: %#x", sc)
	}
	// Port 2 has no device: reset must not enable it.
	bus.Outw(base+RegPORTSC2, PortReset)
	bus.Outw(base+RegPORTSC2, 0)
	if bus.Inw(base+RegPORTSC2)&PortEnable != 0 {
		t.Fatal("empty port enabled")
	}
}

// buildTDChain writes n OUT TDs carrying pattern bytes and returns the
// frame list address.
func buildTDChain(t *testing.T, bus *hw.Bus, n int) (hw.DMAAddr, hw.DMAAddr) {
	t.Helper()
	dma := bus.DMA()
	fl, err := dma.Alloc(FrameListEntries*4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dma.Alloc(n*TDSize+n*64, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		td := pool + hw.DMAAddr(i*TDSize)
		buf := pool + hw.DMAAddr(n*TDSize+i*64)
		dma.Write(buf, []byte{byte(i), 0xAA})
		link := uint32(td) + TDSize
		status := uint32(TDActive)
		if i == n-1 {
			link = LinkTerminate
			status |= TDIOC
		}
		dma.Write32(td, link)
		dma.Write32(td+4, status)
		dma.Write32(td+8, uint32(PIDOut)|uint32(63)<<21) // 64-byte packets
		dma.Write32(td+12, uint32(buf))
	}
	for i := 0; i < FrameListEntries; i++ {
		dma.Write32(fl+hw.DMAAddr(4*i), uint32(pool))
	}
	return fl, pool
}

func TestFrameProcessingBudget(t *testing.T) {
	d, bus, clock, flash := newDev(t)
	fl, _ := buildTDChain(t, bus, 40) // 40 TDs > 18/frame budget
	bus.Outl(base+RegFLBASEADD, uint32(fl))
	bus.Outw(base+RegUSBINTR, 0xF)
	fired := 0
	bus.IRQ(10).SetHandler(func() { fired++ })
	bus.Outw(base+RegUSBCMD, CmdRS)

	clock.Advance(time.Millisecond)
	if got := d.Processed(); got != BulkTDsPerFrame {
		t.Fatalf("frame 1 processed %d TDs, want %d", got, BulkTDsPerFrame)
	}
	clock.Advance(time.Millisecond)
	if got := d.Processed(); got != 2*BulkTDsPerFrame {
		t.Fatalf("frame 2 total %d", got)
	}
	clock.Advance(time.Millisecond)
	if got := d.Processed(); got != 40 {
		t.Fatalf("total processed = %d", got)
	}
	if fired != 1 {
		t.Fatalf("IOC interrupts = %d, want 1 (only the last TD)", fired)
	}
	if flash.Written() != 40*64 {
		t.Fatalf("flash: %d bytes, want 40 packets of 64", flash.Written())
	}
	if bus.Inw(base+RegUSBSTS)&StsUSBInt == 0 {
		t.Fatal("USBINT not latched")
	}
}

func TestStopHaltsFrames(t *testing.T) {
	d, bus, clock, _ := newDev(t)
	fl, _ := buildTDChain(t, bus, 40)
	bus.Outl(base+RegFLBASEADD, uint32(fl))
	bus.Outw(base+RegUSBCMD, CmdRS)
	clock.Advance(time.Millisecond)
	n := d.Processed()
	bus.Outw(base+RegUSBCMD, 0) // clear RS
	clock.Advance(10 * time.Millisecond)
	if d.Processed() != n {
		t.Fatal("frames ran while stopped")
	}
	if bus.Inw(base+RegUSBSTS)&StsHalted == 0 {
		t.Fatal("not halted after RS clear")
	}
}

func TestFrameNumberAdvances(t *testing.T) {
	_, bus, clock, _ := newDev(t)
	bus.Outw(base+RegUSBCMD, CmdRS)
	before := bus.Inw(base + RegFRNUM)
	clock.Advance(5 * time.Millisecond)
	after := bus.Inw(base + RegFRNUM)
	if after != before+5 {
		t.Fatalf("FRNUM advanced %d in 5 frames", after-before)
	}
}

func TestInactiveTDsSkippedWithoutBudget(t *testing.T) {
	d, bus, clock, _ := newDev(t)
	dma := bus.DMA()
	fl, pool := buildTDChain(t, bus, 3)
	// Pre-retire the first TD: the walk must skip it for free.
	dma.Write32(pool+4, dma.Read32(pool+4)&^uint32(TDActive))
	bus.Outl(base+RegFLBASEADD, uint32(fl))
	bus.Outw(base+RegUSBCMD, CmdRS)
	clock.Advance(time.Millisecond)
	if d.Processed() != 2 {
		t.Fatalf("processed = %d, want 2 live TDs", d.Processed())
	}
}

func TestFlashDriveIn(t *testing.T) {
	f := &FlashDrive{}
	data := f.HandleIn(1, 64)
	if len(data) != 1 || data[0] != 0 {
		t.Fatalf("IN data = %v", data)
	}
}
