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

type rig struct {
	clock *ktime.Clock
	kern  *kernel.Kernel
	net   *knet.Subsystem
	dev   *rtl8139hw.Device
	drv   *Driver
}

func newRig(t *testing.T, mode xpc.Mode) *rig {
	t.Helper()
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 4<<20)
	kern := kernel.New(clock, bus)
	net := knet.New()
	dev := rtl8139hw.New(bus, 11, 0xC000, [6]byte{0x00, 0xE0, 0x4C, 0x39, 0x13, 0x9A})
	drv := New(kern, net, dev, 0xC000, Config{Mode: mode, IRQ: 11})
	return &rig{clock: clock, kern: kern, net: net, dev: dev, drv: drv}
}

func (r *rig) loadAndUp(t *testing.T) {
	t.Helper()
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	ctx := r.kern.NewContext("ifup")
	if err := r.drv.NetDevice().Up(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestProbeReadsMACFromEEPROM(t *testing.T) {
	for _, mode := range []xpc.Mode{xpc.ModeNative, xpc.ModeDecaf} {
		r := newRig(t, mode)
		if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
			t.Fatal(err)
		}
		if r.drv.Adapter.MAC != [6]byte{0x00, 0xE0, 0x4C, 0x39, 0x13, 0x9A} {
			t.Fatalf("%v: MAC = %x", mode, r.drv.Adapter.MAC)
		}
		if r.drv.Adapter.EEPROM[0] != 0x8129 {
			t.Fatalf("%v: EEPROM signature = %#x", mode, r.drv.Adapter.EEPROM[0])
		}
	}
}

func TestTransmitReceiveLoopback(t *testing.T) {
	for _, mode := range []xpc.Mode{xpc.ModeNative, xpc.ModeDecaf} {
		r := newRig(t, mode)
		r.loadAndUp(t)
		var wire [][]byte
		r.dev.OnTransmit = func(f []byte) { wire = append(wire, append([]byte(nil), f...)) }
		nd := r.drv.NetDevice()
		ctx := r.kern.NewContext("t")
		pkt := knet.NewPacket([6]byte{0xFF}, nd.MAC, 0x0800, 600)
		if err := nd.Transmit(ctx, pkt); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(wire) != 1 || len(wire[0]) != pkt.Len() {
			t.Fatalf("%v: wire got %d frames", mode, len(wire))
		}
		var got []*knet.Packet
		nd.SetRxSink(func(p *knet.Packet) { got = append(got, p) })
		if !r.dev.InjectRx(wire[0]) {
			t.Fatalf("%v: InjectRx rejected", mode)
		}
		if len(got) != 1 || got[0].Len() != pkt.Len() {
			t.Fatalf("%v: rx got %d packets (len %d)", mode, len(got), got[0].Len())
		}
	}
}

func TestSustainedTrafficBothDirections(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.loadAndUp(t)
	nd := r.drv.NetDevice()
	ctx := r.kern.NewContext("t")
	r.dev.OnTransmit = func(f []byte) {}
	rxCount := 0
	nd.SetRxSink(func(p *knet.Packet) { rxCount++ })

	for i := 0; i < 500; i++ {
		if err := nd.Transmit(ctx, knet.NewPacket([6]byte{1}, nd.MAC, 0x0800, 400)); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		frame := knet.NewPacket(nd.MAC, [6]byte{2}, 0x0800, 700)
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("rx %d rejected", i)
		}
	}
	if rxCount != 500 {
		t.Fatalf("received %d, want 500", rxCount)
	}
	if r.drv.Adapter.Stats.TxPackets != 500 || r.drv.Adapter.Stats.RxPackets != 500 {
		t.Fatalf("stats = %+v", r.drv.Adapter.Stats)
	}
}

func TestDecafInitCrossings(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	rep, err := r.kern.LoadModule(r.drv.Module())
	if err != nil {
		t.Fatal(err)
	}
	c := r.drv.Runtime().Counters()
	// Paper: 40 crossings during 8139too initialization (insmod + up);
	// probe alone makes ~22 (20 EEPROM words + reset + the probe upcall).
	if c.Trips() < 15 || c.Trips() > 60 {
		t.Fatalf("init crossings = %d, want ~15-60 (paper: 40)", c.Trips())
	}
	if rep.InitLatency < 300*time.Millisecond {
		t.Fatalf("decaf init latency = %v, paper ~1s", rep.InitLatency)
	}
}

func TestNativeSteadyStateNoCrossings(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.loadAndUp(t)
	r.drv.Runtime().ResetCounters()
	nd := r.drv.NetDevice()
	ctx := r.kern.NewContext("t")
	r.dev.OnTransmit = func(f []byte) {}
	for i := 0; i < 200; i++ {
		_ = nd.Transmit(ctx, knet.NewPacket([6]byte{1}, nd.MAC, 0x0800, 1000))
	}
	if c := r.drv.Runtime().Counters(); c.Trips() != 0 {
		t.Fatalf("steady-state crossings = %d, want 0 (paper: 8139too never invokes the decaf driver under netperf)", c.Trips())
	}
}

func TestCloseReleasesResources(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	dma := r.kern.Bus().DMA()
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	before := dma.InUse()
	ctx := r.kern.NewContext("t")
	if err := r.drv.NetDevice().Up(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.drv.NetDevice().Down(ctx); err != nil {
		t.Fatal(err)
	}
	if dma.InUse() != before {
		t.Fatalf("leaked %d DMA allocations", dma.InUse()-before)
	}
	// IRQ handler must be gone.
	r.kern.Bus().IRQ(11).Raise()
	if r.drv.Adapter.IntrCount != 0 {
		t.Fatal("interrupt handled after close")
	}
}

func TestTxRingExhaustion(t *testing.T) {
	r := newRig(t, xpc.ModeNative)
	r.loadAndUp(t)
	// Disable the device's TOK processing by stopping tx enable, so
	// descriptors never free: the 5th transmit must fail.
	r.drv.outb(rtl8139hw.RegCR, rtl8139hw.CmdRxEnable) // tx disabled
	nd := r.drv.NetDevice()
	ctx := r.kern.NewContext("t")
	var err error
	for i := 0; i < rtl8139hw.NumTxDesc+1; i++ {
		err = nd.Transmit(ctx, knet.NewPacket([6]byte{1}, nd.MAC, 0x0800, 100))
	}
	if err == nil {
		t.Fatal("transmit succeeded past descriptor exhaustion")
	}
}
