package rtl8139

import (
	"testing"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/rtl8139hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/xpc"
)

// newAdaptiveRig boots a decaf-data-path rig with an explicit coalescing
// window (0 selects the adaptive mode under test).
func newAdaptiveRig(t *testing.T, batchN int, window time.Duration) *rig {
	t.Helper()
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 4<<20)
	kern := kernel.New(clock, bus)
	net := knet.New()
	dev := rtl8139hw.New(bus, 11, 0xC000, [6]byte{0x00, 0xE0, 0x4C, 0x39, 0x13, 0x9A})
	drv := New(kern, net, dev, 0xC000, Config{
		Mode: xpc.ModeDecaf, IRQ: 11, DataPath: xpc.DataPathDecaf,
		RxCoalesceWindow: window,
	})
	drv.Runtime().SetTransport(xpc.BatchTransport{N: batchN})
	return &rig{clock: clock, kern: kern, net: net, dev: dev, drv: drv}
}

// injectPaced injects n frames spaced `gap` apart on the virtual clock,
// feeding the driver's interarrival EWMA.
func (r *rig) injectPaced(t *testing.T, n int, gap time.Duration) {
	t.Helper()
	frame := knet.NewPacket(r.drv.Adapter.MAC, [6]byte{9, 8, 7, 6, 5, 4}, 0x0800, 200)
	for i := 0; i < n; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("inject %d failed", i)
		}
		r.kern.DefaultWorkqueue().Drain()
		r.clock.Advance(gap)
	}
}

// TestAdaptiveWindowTracksInterarrival checks the self-tuning window: at a
// steady 50µs interarrival and batch 8, the window settles at interarrival
// × batch × 5/4 = 500µs — a quarter of the fixed 2 ms default — so partial
// batches flush as soon as the traffic warrants.
func TestAdaptiveWindowTracksInterarrival(t *testing.T) {
	r := newAdaptiveRig(t, 8, 0)
	r.loadAndUp(t)
	if got := r.drv.coalesceWindow(); got != rxCoalesceWindow {
		t.Fatalf("window before any traffic = %v, want the 2 ms default", got)
	}
	r.injectPaced(t, 16, 50*time.Microsecond)
	want := 50 * time.Microsecond * 8 * 5 / 4
	if got := r.drv.coalesceWindow(); got != want {
		t.Fatalf("adaptive window = %v, want %v", got, want)
	}
}

// TestAdaptiveWindowClamps checks both clamp edges: back-to-back frames
// cannot push the window below 100µs, and slow traffic cannot hold frames
// longer than the 2 ms ceiling.
func TestAdaptiveWindowClamps(t *testing.T) {
	fast := newAdaptiveRig(t, 8, 0)
	fast.loadAndUp(t)
	fast.injectPaced(t, 16, time.Microsecond) // raw window 10µs
	if got := fast.drv.coalesceWindow(); got != rxCoalesceMin {
		t.Fatalf("fast-traffic window = %v, want the %v floor", got, rxCoalesceMin)
	}

	slow := newAdaptiveRig(t, 8, 0)
	slow.loadAndUp(t)
	slow.injectPaced(t, 4, 10*time.Millisecond) // raw window 100ms
	if got := slow.drv.coalesceWindow(); got != rxCoalesceWindow {
		t.Fatalf("slow-traffic window = %v, want the %v ceiling", got, rxCoalesceWindow)
	}
}

// TestExplicitWindowOverridesAdaptive checks RxCoalesceWindow as an explicit
// override: observations do not move it.
func TestExplicitWindowOverridesAdaptive(t *testing.T) {
	const fixed = 700 * time.Microsecond
	r := newAdaptiveRig(t, 8, fixed)
	r.loadAndUp(t)
	r.injectPaced(t, 16, 50*time.Microsecond)
	if got := r.drv.coalesceWindow(); got != fixed {
		t.Fatalf("overridden window = %v, want %v", got, fixed)
	}
}

// TestAdaptiveWindowFlushesPartialBatch checks the adaptive window actually
// drives the coalescing timer: once the EWMA has settled at a high rate, a
// stranded partial batch flushes within the adaptive window — well before
// the fixed 2 ms default would have fired.
func TestAdaptiveWindowFlushesPartialBatch(t *testing.T) {
	r := newAdaptiveRig(t, 8, 0)
	r.loadAndUp(t)
	// Settle the EWMA at 50µs interarrival (adaptive window 500µs). The
	// pacing drains each full batch as it flushes; the stragglers follow at
	// the same rate, so the idle-gap sample cannot widen the window first.
	r.injectPaced(t, 16, 50*time.Microsecond)

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
		t.Fatal("partial batch flushed before any window closed")
	}
	// 600µs > the 500µs adaptive window but < the 2 ms fixed default.
	r.clock.Advance(600 * time.Microsecond)
	r.kern.DefaultWorkqueue().Drain()
	if received != 3 {
		t.Fatalf("received %d frames after the adaptive window, want 3", received)
	}
}
