package es1371hw

import (
	"testing"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/ktime"
)

const base = 0xD000

func newDev(t *testing.T) (*Device, *hw.Bus, *ktime.Clock) {
	t.Helper()
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 4<<20)
	return New(bus, 5, base), bus, clock
}

func TestCodecReadWrite(t *testing.T) {
	_, bus, _ := newDev(t)
	// Vendor ID registers carry reset values.
	bus.Outl(base+RegCodec, 0x7C<<16|CodecReadRequest)
	v := bus.Inl(base + RegCodec)
	if v&CodecReady == 0 {
		t.Fatal("codec not ready")
	}
	if uint16(v) != 0x4352 {
		t.Fatalf("vendor hi = %#x", uint16(v))
	}
	// Write then read back a mixer register.
	bus.Outl(base+RegCodec, 0x02<<16|0x1234)
	bus.Outl(base+RegCodec, 0x02<<16|CodecReadRequest)
	if uint16(bus.Inl(base+RegCodec)) != 0x1234 {
		t.Fatal("codec write did not stick")
	}
}

func TestSRCRAM(t *testing.T) {
	d, bus, _ := newDev(t)
	bus.Outl(base+RegSRC, 42<<25|SRCWE|0xBEEF)
	if got := d.SRCReg(42); got != 0xBEEF {
		t.Fatalf("SRC[42] = %#x", got)
	}
	// Reads report not-busy immediately.
	if bus.Inl(base+RegSRC)&SRCBusy != 0 {
		t.Fatal("SRC stuck busy")
	}
}

func TestPlaybackEngineConsumesAtRate(t *testing.T) {
	d, bus, clock := newDev(t)
	dma := bus.DMA()
	buf, _ := dma.Alloc(4096*4, 4096)
	bus.Outl(base+RegDAC2FrameAddr, uint32(buf))
	bus.Outl(base+RegDAC2FrameSize, 4096)
	bus.Outl(base+RegDAC2Count, 1024) // 1024-sample periods

	fired := 0
	bus.IRQ(5).SetHandler(func() { fired++ })
	bus.Outl(base+RegControl, CtrlDAC2En)

	// One period at 44.1kHz is ~23.2ms.
	clock.Advance(20 * time.Millisecond)
	if fired != 0 || d.Consumed() != 0 {
		t.Fatal("period fired early")
	}
	clock.Advance(5 * time.Millisecond)
	if fired != 1 || d.Consumed() != 1024 {
		t.Fatalf("fired=%d consumed=%d after one period time", fired, d.Consumed())
	}
	if d.Consumed() != 1024 {
		t.Fatalf("consumed = %d", d.Consumed())
	}
	st := bus.Inl(base + RegStatus)
	if st&StatusIntr == 0 || st&StatusDAC2 == 0 {
		t.Fatalf("status = %#x", st)
	}
	// Ack and continue.
	bus.Outl(base+RegStatus, StatusDAC2)
	clock.Advance(50 * time.Millisecond)
	if periods := d.Consumed() / 1024; periods < 3 {
		t.Fatalf("periods = %d after 75ms", periods)
	}
}

func TestDisableStopsEngine(t *testing.T) {
	d, bus, clock := newDev(t)
	bus.Outl(base+RegDAC2Count, 512)
	bus.Outl(base+RegDAC2FrameSize, 4096)
	bus.Outl(base+RegControl, CtrlDAC2En)
	clock.Advance(30 * time.Millisecond)
	n := d.Consumed()
	if n == 0 {
		t.Fatal("engine never ran")
	}
	bus.Outl(base+RegControl, 0)
	clock.Advance(100 * time.Millisecond)
	if d.Consumed() != n {
		t.Fatal("engine ran after disable")
	}
}

func TestEngineWithoutPeriodLenIdle(t *testing.T) {
	d, bus, clock := newDev(t)
	bus.Outl(base+RegControl, CtrlDAC2En) // no period programmed
	clock.Advance(time.Second)
	if d.Consumed() != 0 {
		t.Fatal("engine ran without DAC2Count")
	}
}

func TestPositionWraps(t *testing.T) {
	d, bus, clock := newDev(t)
	bus.Outl(base+RegDAC2Count, 1024)
	bus.Outl(base+RegDAC2FrameSize, 1024) // 2048-sample buffer window
	bus.Outl(base+RegControl, CtrlDAC2En)
	clock.Advance(200 * time.Millisecond) // many periods
	if d.Position() >= 2048 {
		t.Fatalf("position %d did not wrap", d.Position())
	}
}
