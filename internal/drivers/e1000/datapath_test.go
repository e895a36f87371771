package e1000

import (
	"testing"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/e1000hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/xpc"
)

func newDecafPathRig(t *testing.T, batchN int) *rig {
	t.Helper()
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 8<<20)
	kern := kernel.New(clock, bus)
	net := knet.New()
	dev := e1000hw.New(bus, 9, [6]byte{0x00, 0x1B, 0x21, 0xAA, 0xBB, 0xCC})
	dev.SetLink(true)
	drv := New(kern, net, dev, Config{
		Mode: xpc.ModeDecaf, IRQ: 9,
		DataPath: xpc.DataPathDecaf, TxQueueDepth: batchN,
	})
	if batchN > 1 {
		drv.Runtime().SetTransport(xpc.BatchTransport{N: batchN})
	}
	return &rig{clock: clock, kern: kern, net: net, dev: dev, drv: drv}
}

// TestDecafDataPathBatchedTx checks that TX frames queue until the batch
// fills, cross to the decaf driver in one crossing, and still reach the
// hardware.
func TestDecafDataPathBatchedTx(t *testing.T) {
	const batchN = 4
	r := newDecafPathRig(t, batchN)
	r.load(t)
	r.up(t)
	r.drv.Runtime().ResetCounters()

	ctx := r.kern.NewContext("xmit")
	pkt := knet.NewPacket([6]byte{1, 2, 3, 4, 5, 6}, r.drv.Adapter.MAC, 0x0800, 100)
	for i := 0; i < batchN-1; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.drv.Runtime().Counters().Trips(); got != 0 {
		t.Fatalf("crossed %d times before the batch filled", got)
	}
	if r.drv.Adapter.Stats.TxPackets != 0 {
		t.Fatal("frames reached hardware before the flush")
	}
	// The batchN-th frame fills the queue and flushes.
	if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
		t.Fatal(err)
	}
	c := r.drv.Runtime().Counters()
	if c.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1 crossing for the whole batch", c.Trips())
	}
	if c.BatchedCalls != batchN {
		t.Fatalf("BatchedCalls = %d, want %d", c.BatchedCalls, batchN)
	}
	if got := r.drv.Adapter.Stats.TxPackets; got != batchN {
		t.Fatalf("hardware transmitted %d frames, want %d", got, batchN)
	}
	if got := r.drv.DecafTxFrames(); got != batchN {
		t.Fatalf("decaf driver saw %d frames, want %d", got, batchN)
	}
}

// TestDecafDataPathTxCoalescingTimer checks that a partial TX queue is
// flushed by the coalescing window when traffic pauses, rather than waiting
// for the batch to fill.
func TestDecafDataPathTxCoalescingTimer(t *testing.T) {
	r := newDecafPathRig(t, 32)
	r.load(t)
	r.up(t)

	ctx := r.kern.NewContext("xmit")
	pkt := knet.NewPacket([6]byte{1, 2, 3, 4, 5, 6}, r.drv.Adapter.MAC, 0x0800, 100)
	for i := 0; i < 5; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if r.drv.Adapter.Stats.TxPackets != 0 {
		t.Fatal("partial queue transmitted before the window closed")
	}
	// Traffic pauses; the coalescing timer must flush the 5 queued frames.
	r.clock.Advance(2 * txCoalesceWindow)
	r.kern.DefaultWorkqueue().Drain()
	if got := r.drv.Adapter.Stats.TxPackets; got != 5 {
		t.Fatalf("hardware transmitted %d frames after the window, want 5", got)
	}
}

// TestDecafDataPathFlushOnStop checks that a partial TX queue flushes when
// the interface goes down rather than stranding frames.
func TestDecafDataPathFlushOnStop(t *testing.T) {
	r := newDecafPathRig(t, 8)
	r.load(t)
	r.up(t)

	ctx := r.kern.NewContext("xmit")
	pkt := knet.NewPacket([6]byte{1, 2, 3, 4, 5, 6}, r.drv.Adapter.MAC, 0x0800, 100)
	for i := 0; i < 3; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if r.drv.Adapter.Stats.TxPackets != 0 {
		t.Fatal("partial queue transmitted early")
	}
	if err := r.drv.NetDevice().Down(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r.drv.Adapter.Stats.TxPackets; got != 3 {
		t.Fatalf("hardware transmitted %d frames after Down, want the 3 queued", got)
	}
}

// TestDecafDataPathRx checks that received frames cross through the decaf
// driver via the work-queue handoff and still reach the stack.
func TestDecafDataPathRx(t *testing.T) {
	r := newDecafPathRig(t, 8)
	r.load(t)
	r.up(t)
	r.drv.Runtime().ResetCounters()

	received := 0
	r.drv.NetDevice().SetRxSink(func(p *knet.Packet) { received++ })
	frame := knet.NewPacket(r.drv.Adapter.MAC, [6]byte{9, 8, 7, 6, 5, 4}, 0x0800, 256)
	for i := 0; i < 5; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatal("inject failed")
		}
	}
	if received != 0 {
		t.Fatal("frames delivered before the deferred flush ran")
	}
	r.kern.DefaultWorkqueue().Drain()
	if received != 5 {
		t.Fatalf("received %d frames, want 5", received)
	}
	if got := r.drv.rt.SharedState().Load(cellRxFrames); got != 5 {
		t.Fatalf("decaf driver saw %d RX frames, want 5", got)
	}
	if got := r.drv.Runtime().Counters().Trips(); got == 0 || got > 5 {
		t.Fatalf("RX crossings = %d, want between 1 (batched) and 5", got)
	}
}

// TestNucleusDataPathUnchanged checks the default configuration still never
// crosses on the data path — the paper's split.
func TestNucleusDataPathUnchanged(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.load(t)
	r.up(t)
	r.drv.Runtime().ResetCounters()

	ctx := r.kern.NewContext("xmit")
	pkt := knet.NewPacket([6]byte{1, 2, 3, 4, 5, 6}, r.drv.Adapter.MAC, 0x0800, 100)
	for i := 0; i < 10; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.drv.Runtime().Counters().Trips(); got != 0 {
		t.Fatalf("nucleus data path crossed %d times", got)
	}
	if r.drv.Adapter.Stats.TxPackets != 10 {
		t.Fatalf("transmitted %d, want 10", r.drv.Adapter.Stats.TxPackets)
	}
}
