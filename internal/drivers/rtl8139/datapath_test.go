package rtl8139

import (
	"testing"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/rtl8139hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/xpc"
)

func newDecafPathRig(t *testing.T, batchN int) *rig {
	t.Helper()
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 4<<20)
	kern := kernel.New(clock, bus)
	net := knet.New(kern)
	dev := rtl8139hw.New(bus, 11, 0xC000, [6]byte{0x00, 0xE0, 0x4C, 0x39, 0x13, 0x9A})
	drv := New(kern, net, dev, 0xC000, Config{
		Mode: xpc.ModeDecaf, IRQ: 11, DataPath: xpc.DataPathDecaf,
	})
	if batchN > 1 {
		drv.Runtime().SetTransport(xpc.BatchTransport{N: batchN})
	}
	return &rig{clock: clock, kern: kern, net: net, dev: dev, drv: drv}
}

// TestRxCoalescingFillsBatch checks that per-frame interrupts accumulate
// frames until the transport batch fills, then flush in one crossing.
func TestRxCoalescingFillsBatch(t *testing.T) {
	const batchN = 4
	r := newDecafPathRig(t, batchN)
	r.loadAndUp(t)
	r.drv.Runtime().ResetCounters()

	received := 0
	r.drv.NetDevice().SetRxSink(func(p *knet.Packet) { received++ })
	frame := knet.NewPacket(r.drv.Adapter.MAC, [6]byte{9, 8, 7, 6, 5, 4}, 0x0800, 200)
	for i := 0; i < batchN; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("inject %d failed", i)
		}
	}
	r.kern.DefaultWorkqueue().Drain()
	if received != batchN {
		t.Fatalf("received %d frames, want %d", received, batchN)
	}
	c := r.drv.Runtime().Counters()
	if c.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1 batched crossing for %d frames", c.Trips(), batchN)
	}
	if c.BatchedCalls != batchN {
		t.Fatalf("BatchedCalls = %d, want %d", c.BatchedCalls, batchN)
	}
	if got := r.drv.DecafRxFrames(); got != batchN {
		t.Fatalf("decaf driver saw %d frames, want %d", got, batchN)
	}
}

// TestRxCoalescingTimerFlushesPartialBatch checks that frames short of a
// full batch are not stranded: the coalescing timer closes the window.
func TestRxCoalescingTimerFlushesPartialBatch(t *testing.T) {
	r := newDecafPathRig(t, 8)
	r.loadAndUp(t)

	received := 0
	r.drv.NetDevice().SetRxSink(func(p *knet.Packet) { received++ })
	frame := knet.NewPacket(r.drv.Adapter.MAC, [6]byte{9, 8, 7, 6, 5, 4}, 0x0800, 200)
	for i := 0; i < 3; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("inject %d failed", i)
		}
	}
	r.kern.DefaultWorkqueue().Drain()
	if received != 0 {
		t.Fatal("partial batch flushed before the coalescing window closed")
	}
	// Let the coalescing timer fire, then drain the flush work it queued.
	r.clock.Advance(2 * rxCoalesceWindow)
	r.kern.DefaultWorkqueue().Drain()
	if received != 3 {
		t.Fatalf("received %d frames after window, want 3", received)
	}
}

// TestRxCoalescingRearmsAfterStop checks the coalescing timer re-arms after
// a Stop/Open cycle: a frame arriving post-reopen must still be flushed by
// the window, not stranded behind a stale armed flag.
func TestRxCoalescingRearmsAfterStop(t *testing.T) {
	r := newDecafPathRig(t, 8)
	r.loadAndUp(t)

	frame := knet.NewPacket(r.drv.Adapter.MAC, [6]byte{9, 8, 7, 6, 5, 4}, 0x0800, 200)
	// Arm the timer with one pending frame, then bounce the interface
	// before the window closes.
	if !r.dev.InjectRx(frame.Data) {
		t.Fatal("inject failed")
	}
	ctx := r.kern.NewContext("bounce")
	if err := r.drv.NetDevice().Down(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.drv.NetDevice().Up(ctx); err != nil {
		t.Fatal(err)
	}

	received := 0
	r.drv.NetDevice().SetRxSink(func(p *knet.Packet) { received++ })
	if !r.dev.InjectRx(frame.Data) {
		t.Fatal("inject after reopen failed")
	}
	r.clock.Advance(2 * rxCoalesceWindow)
	r.kern.DefaultWorkqueue().Drain()
	if received != 1 {
		t.Fatalf("received %d frames after reopen, want 1 (timer failed to re-arm)", received)
	}
}

// TestRxDecafPathAsyncTransport drives the decaf RX path through an
// AsyncTransport end to end: probe (with its nested inline downcalls),
// interrupt drains submitting through the ring, and
// Quiesce settling the in-flight flushes so every frame is delivered.
func TestRxDecafPathAsyncTransport(t *testing.T) {
	const batchN = 4
	r := newDecafPathRig(t, 1)
	r.drv.Runtime().SetTransport(xpc.NewAsyncTransport(xpc.AsyncConfig{Depth: 32, Batch: batchN}))
	defer r.drv.Runtime().SetTransport(nil)
	r.loadAndUp(t)
	r.drv.Runtime().ResetCounters()

	received := 0
	r.drv.NetDevice().SetRxSink(func(p *knet.Packet) { received++ })
	frame := knet.NewPacket(r.drv.Adapter.MAC, [6]byte{9, 8, 7, 6, 5, 4}, 0x0800, 200)
	for i := 0; i < 2*batchN; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("inject %d failed", i)
		}
	}
	r.kern.DefaultWorkqueue().Drain()
	ctx := r.kern.NewContext("settle")
	if err := r.drv.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if received != 2*batchN {
		t.Fatalf("received %d frames, want %d", received, 2*batchN)
	}
	if got := r.drv.DecafRxFrames(); got != 2*batchN {
		t.Fatalf("decaf driver saw %d frames, want %d", got, 2*batchN)
	}
	c := r.drv.Runtime().Counters()
	if c.Trips() == 0 || c.Trips() > 2*batchN {
		t.Fatalf("Trips = %d, want coalesced crossings", c.Trips())
	}
	if c.InFlight != 0 {
		t.Fatalf("InFlight = %d after Quiesce", c.InFlight)
	}
}

// TestProbeEEPROMWalkCrossesPerWord checks the probe-time EEPROM walk under
// a batched transport: the probe body needs each word's value back before it
// can ask for the next, so the 32-word walk plus the Cfg9346 lock dance is 34
// downcalls of one call each, whatever the transport coalesces — the same 40
// initialization crossings as per-call.
func TestProbeEEPROMWalkCrossesPerWord(t *testing.T) {
	r := newDecafPathRig(t, 16)
	r.loadAndUp(t)
	c := r.drv.Runtime().Counters()
	if c.Trips() != 40 || c.Batches != 0 {
		t.Fatalf("Trips = %d Batches = %d, want 40 single-call crossings", c.Trips(), c.Batches)
	}
	if c.PerCall["rtl8139_read_eeprom"] != 32 {
		t.Fatalf("EEPROM reads = %d, want 32", c.PerCall["rtl8139_read_eeprom"])
	}
	if _, eeprom := r.drv.probeCells(); eeprom[0] != 0x8129 {
		t.Fatalf("EEPROM signature = %#x", eeprom[0])
	}
}

// TestRxPendingPurgedOnStop checks ifdown drops coalesced-but-unflushed
// frames instead of delivering through a closing driver.
func TestRxPendingPurgedOnStop(t *testing.T) {
	r := newDecafPathRig(t, 8)
	r.loadAndUp(t)

	frame := knet.NewPacket(r.drv.Adapter.MAC, [6]byte{9, 8, 7, 6, 5, 4}, 0x0800, 200)
	for i := 0; i < 2; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("inject %d failed", i)
		}
	}
	ctx := r.kern.NewContext("ifdown")
	if err := r.drv.NetDevice().Down(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r.drv.Adapter.Stats.RxDropped; got != 2 {
		t.Fatalf("RxDropped = %d, want the 2 purged frames", got)
	}
}
