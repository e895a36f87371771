package e1000

import (
	"errors"
	"strings"
	"testing"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/hw"
	"decafdrivers/internal/hw/e1000hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/ktime"
	"decafdrivers/internal/xpc"
)

type rig struct {
	clock *ktime.Clock
	kern  *kernel.Kernel
	net   *knet.Subsystem
	dev   *e1000hw.Device
	drv   *Driver
}

func newRig(t *testing.T, mode xpc.Mode) *rig {
	t.Helper()
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 8<<20)
	kern := kernel.New(clock, bus)
	net := knet.New()
	dev := e1000hw.New(bus, 9, [6]byte{0x00, 0x1B, 0x21, 0xAA, 0xBB, 0xCC})
	dev.SetLink(true)
	drv := New(kern, net, dev, Config{Mode: mode, IRQ: 9})
	return &rig{clock: clock, kern: kern, net: net, dev: dev, drv: drv}
}

func (r *rig) load(t *testing.T) kernel.LoadReport {
	t.Helper()
	rep, err := r.kern.LoadModule(r.drv.Module())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func (r *rig) up(t *testing.T) {
	t.Helper()
	ctx := r.kern.NewContext("ifup")
	if err := r.drv.NetDevice().Up(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestProbeReadsIdentity(t *testing.T) {
	for _, mode := range []xpc.Mode{xpc.ModeNative, xpc.ModeDecaf} {
		r := newRig(t, mode)
		r.load(t)
		a := r.drv.Adapter
		if a.MAC != [6]byte{0x00, 0x1B, 0x21, 0xAA, 0xBB, 0xCC} {
			t.Errorf("%v: MAC = %x", mode, a.MAC)
		}
		if a.PhyID != 0x01410CB0 {
			t.Errorf("%v: PhyID = %#x", mode, a.PhyID)
		}
		if a.ConfigSpace[0] != uint32(e1000hw.DeviceID)<<16|e1000hw.VendorID {
			t.Errorf("%v: ConfigSpace[0] = %#x", mode, a.ConfigSpace[0])
		}
		if a.Name != "eth0" {
			t.Errorf("%v: Name = %q", mode, a.Name)
		}
	}
}

func TestProbeFailsOnBadEEPROM(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.dev.CorruptEEPROM()
	_, err := r.kern.LoadModule(r.drv.Module())
	if err == nil {
		t.Fatal("probe succeeded with corrupt EEPROM")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("err = %v, want checksum failure", err)
	}
	if len(r.kern.LoadedModules()) != 0 {
		t.Fatal("failed module left loaded")
	}
}

func TestBadModuleParamRejected(t *testing.T) {
	clock := ktime.NewClock()
	bus := hw.NewBus(clock, 8<<20)
	kern := kernel.New(clock, bus)
	net := knet.New()
	dev := e1000hw.New(bus, 9, [6]byte{1, 2, 3, 4, 5, 6})
	dev.SetLink(true)
	drv := New(kern, net, dev, Config{Mode: xpc.ModeDecaf, IRQ: 9,
		ModuleParams: map[string]int{"TxDescriptors": 7}}) // below MinRing
	if _, err := kern.LoadModule(drv.Module()); err == nil {
		t.Fatal("out-of-range TxDescriptors accepted")
	}
}

func TestOpenTransmitReceive(t *testing.T) {
	for _, mode := range []xpc.Mode{xpc.ModeNative, xpc.ModeDecaf} {
		r := newRig(t, mode)
		r.load(t)
		r.up(t)

		var wire [][]byte
		r.dev.OnTransmit = func(f []byte) { wire = append(wire, append([]byte(nil), f...)) }

		nd := r.drv.NetDevice()
		ctx := r.kern.NewContext("netperf")
		pkt := knet.NewPacket([6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, nd.MAC, 0x0800, 1000)
		if err := nd.Transmit(ctx, pkt); err != nil {
			t.Fatalf("%v: transmit: %v", mode, err)
		}
		if len(wire) != 1 || len(wire[0]) != pkt.Len() {
			t.Fatalf("%v: wire = %d frames", mode, len(wire))
		}

		var got []*knet.Packet
		nd.SetRxSink(func(p *knet.Packet) { got = append(got, p) })
		if !r.dev.InjectRx(wire[0]) {
			t.Fatalf("%v: InjectRx rejected", mode)
		}
		if len(got) != 1 || got[0].Len() != pkt.Len() {
			t.Fatalf("%v: received %d packets", mode, len(got))
		}
		if got[0].Data[20] != pkt.Data[20] {
			t.Fatalf("%v: payload corrupted in rx path", mode)
		}
		if r.drv.Adapter.Stats.TxPackets != 1 || r.drv.Adapter.Stats.RxPackets != 1 {
			t.Fatalf("%v: stats = %+v", mode, r.drv.Adapter.Stats)
		}
	}
}

func TestTransmitManyWrapsRing(t *testing.T) {
	r := newRig(t, xpc.ModeNative)
	r.load(t)
	r.up(t)
	sent := 0
	r.dev.OnTransmit = func(f []byte) { sent++ }
	nd := r.drv.NetDevice()
	ctx := r.kern.NewContext("burst")
	for i := 0; i < 1000; i++ { // > ring size 256: must wrap cleanly
		pkt := knet.NewPacket([6]byte{1}, nd.MAC, 0x0800, 500)
		if err := nd.Transmit(ctx, pkt); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	if sent != 1000 {
		t.Fatalf("wire saw %d frames, want 1000", sent)
	}
}

func TestDecafInitCrossings(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	rep := r.load(t)
	c := r.drv.Runtime().Counters()
	// Paper Table 3: 91 crossings during E1000 initialization. The model's
	// probe makes ~70 (64 EEPROM downcalls plus PHY/reset/config); accept
	// the right order of magnitude.
	if c.Trips() < 60 || c.Trips() > 130 {
		t.Fatalf("init crossings = %d, want ~60-130 (paper: 91)", c.Trips())
	}
	if rep.InitLatency < time.Second {
		t.Fatalf("decaf init latency = %v, expected seconds (paper: 4.87s)", rep.InitLatency)
	}
}

func TestNativeInitFastAndCrossingFree(t *testing.T) {
	r := newRig(t, xpc.ModeNative)
	rep := r.load(t)
	if c := r.drv.Runtime().Counters(); c.Trips() != 0 {
		t.Fatalf("native init crossed %d times", c.Trips())
	}
	// Native init is dominated by the modeled hardware settle times.
	if rep.InitLatency > time.Second {
		t.Fatalf("native init latency = %v, expected sub-second (paper: 0.42s)", rep.InitLatency)
	}
}

func TestSteadyStateNoCrossingsExceptWatchdog(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.load(t)
	r.up(t)
	r.drv.Runtime().ResetCounters()

	nd := r.drv.NetDevice()
	ctx := r.kern.NewContext("netperf")
	for i := 0; i < 100; i++ {
		_ = nd.Transmit(ctx, knet.NewPacket([6]byte{1}, nd.MAC, 0x0800, 1000))
	}
	if c := r.drv.Runtime().Counters(); c.Trips() != 0 {
		t.Fatalf("data path crossed %d times", c.Trips())
	}

	// Advance past two watchdog periods and drain the deferred work: the
	// only steady-state crossings are the watchdog upcalls.
	r.clock.Advance(2 * WatchdogPeriod)
	r.kern.DefaultWorkqueue().Drain()
	c := r.drv.Runtime().Counters()
	if c.PerCall["e1000_watchdog"] != 2 {
		t.Fatalf("watchdog upcalls = %d, want 2", c.PerCall["e1000_watchdog"])
	}
	if r.drv.rt.SharedState().Load(cellWatchdogRuns) != 2 {
		t.Fatalf("WatchdogRuns = %d", r.drv.rt.SharedState().Load(cellWatchdogRuns))
	}
}

func TestWatchdogDetectsLinkLoss(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.load(t)
	r.up(t)
	if !r.drv.NetDevice().CarrierOK() {
		t.Fatal("carrier not up after open")
	}
	r.dev.SetLink(false)
	// The LSC interrupt defers watchdog work; drain it.
	r.kern.DefaultWorkqueue().Drain()
	if r.drv.NetDevice().CarrierOK() {
		t.Fatal("carrier still up after link loss")
	}
	if r.drv.Adapter.LinkUp {
		t.Fatal("adapter.LinkUp stale after watchdog")
	}
	r.dev.SetLink(true)
	r.kern.DefaultWorkqueue().Drain()
	if !r.drv.NetDevice().CarrierOK() {
		t.Fatal("carrier not restored")
	}
}

// TestOpenNestedCleanup is the Figure 4 experiment: inject a failure at the
// request_irq stage and verify the nested handlers released the rings.
func TestE1000OpenNestedCleanup(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.load(t)
	// Occupy the IRQ handler slot so request_irq fails... RequestIRQ allows
	// sharing, so instead inject failure by exhausting DMA: allocate the
	// arena dry so setup_rx fails after setup_tx succeeded.
	dma := r.kern.Bus().DMA()
	for {
		if _, err := dma.Alloc(1<<20, 64); err != nil {
			break
		}
	}
	inUseBefore := dma.InUse()
	ctx := r.kern.NewContext("ifup")
	err := r.drv.NetDevice().Up(ctx)
	if err == nil {
		t.Fatal("open succeeded with exhausted DMA arena")
	}
	// Whatever tx/rx resources were acquired must have been freed by the
	// nested handlers (Figure 4 semantics).
	if got := dma.InUse(); got != inUseBefore {
		t.Fatalf("open leaked %d DMA allocations on failure", got-inUseBefore)
	}
	if r.drv.NetDevice().IsUp() {
		t.Fatal("device marked up after failed open")
	}
}

func TestCloseFreesResources(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.load(t)
	dma := r.kern.Bus().DMA()
	before := dma.InUse()
	r.up(t)
	ctx := r.kern.NewContext("ifdown")
	if err := r.drv.NetDevice().Down(ctx); err != nil {
		t.Fatal(err)
	}
	if got := dma.InUse(); got != before {
		t.Fatalf("close leaked %d DMA allocations", got-before)
	}
}

func TestModuleUnload(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.load(t)
	r.up(t)
	if err := r.kern.UnloadModule("e1000"); err != nil {
		t.Fatal(err)
	}
	if r.drv.Runtime().SharedCount() != 0 {
		t.Fatal("shared objects leaked after unload")
	}
	if _, ok := r.net.Device("eth0"); ok {
		t.Fatal("netdev still registered after unload")
	}
	// Watchdog must not fire after unload.
	runs := r.drv.rt.SharedState().Load(cellWatchdogRuns)
	r.clock.Advance(10 * WatchdogPeriod)
	r.kern.DefaultWorkqueue().Drain()
	if r.drv.rt.SharedState().Load(cellWatchdogRuns) != runs {
		t.Fatal("watchdog ran after unload")
	}
}

func TestTransmitWithoutCarrierFails(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.load(t)
	r.up(t)
	r.dev.SetLink(false)
	r.kern.DefaultWorkqueue().Drain()
	nd := r.drv.NetDevice()
	ctx := r.kern.NewContext("t")
	err := nd.Transmit(ctx, knet.NewPacket([6]byte{1}, nd.MAC, 0x0800, 100))
	if err == nil {
		t.Fatal("transmit succeeded without carrier")
	}
	if nd.Stats().TxErrors != 1 {
		t.Fatalf("TxErrors = %d", nd.Stats().TxErrors)
	}
}

func TestNativeAndDecafConverge(t *testing.T) {
	// The same traffic through both deployments must produce identical
	// device-visible behavior (frames on the wire).
	frames := func(mode xpc.Mode) uint64 {
		r := newRig(t, mode)
		r.load(t)
		r.up(t)
		nd := r.drv.NetDevice()
		ctx := r.kern.NewContext("t")
		for i := 0; i < 50; i++ {
			if err := nd.Transmit(ctx, knet.NewPacket([6]byte{2}, nd.MAC, 0x0800, 900)); err != nil {
				t.Fatal(err)
			}
		}
		tx, _, _, _, _ := r.dev.Counters()
		return tx
	}
	if n, d := frames(xpc.ModeNative), frames(xpc.ModeDecaf); n != d || n != 50 {
		t.Fatalf("native sent %d, decaf sent %d, want 50/50", n, d)
	}
}

func init() {
	registry.Register("buggy_user_code", registry.Handler{Fn: func(*registry.Ctx) error {
		var p *Adapter
		_ = p.Name // nil dereference in user-level code
		return nil
	}})
}

func TestUserFaultContained(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.load(t)
	ctx := r.kern.NewContext("t")
	err := r.drv.Runtime().Call(ctx, registry.Lookup("buggy_user_code"))
	var fault *xpc.UserFault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want UserFault", err)
	}
	// Kernel survives: the data path still works.
	r.up(t)
	nd := r.drv.NetDevice()
	if err := nd.Transmit(ctx, knet.NewPacket([6]byte{3}, nd.MAC, 0x0800, 100)); err != nil {
		t.Fatalf("kernel unusable after contained user fault: %v", err)
	}
}

// TestOpenNestedReleaseOrder: Figure 4's nested handlers release in reverse
// order of acquisition — a failed request_irq frees the receive ring, then
// the transmit ring, then resets the device — before the failure reaches
// the kernel.
func TestOpenNestedReleaseOrder(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.load(t)
	rt, n := r.drv.Runtime(), r.drv.nuc
	var order []string
	record := func(name string, fn func(*kernel.Context)) {
		rt.RegisterDowncall(name, func(kctx *kernel.Context, _ uint64) (uint64, error) {
			order = append(order, name)
			fn(kctx)
			return 0, nil
		})
	}
	record("e1000_free_all_rx_resources", n.freeRxResources)
	record("e1000_free_all_tx_resources", n.freeTxResources)
	record("e1000_down", n.down)
	record("e1000_reset_hw", n.resetHW)
	rt.BindDowncall(downRequestIRQ, func(*kernel.Context, uint64) (uint64, error) {
		return 0, errors.New("EBUSY")
	})
	dma := r.kern.Bus().DMA()
	before := dma.InUse()
	if err := r.drv.NetDevice().Up(r.kern.NewContext("ifup")); err == nil {
		t.Fatal("open succeeded with request_irq failing")
	}
	want := []string{"e1000_free_all_rx_resources", "e1000_free_all_tx_resources", "e1000_down", "e1000_reset_hw"}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Fatalf("release order = %v, want %v", order, want)
	}
	if got := dma.InUse(); got != before {
		t.Fatalf("failed open leaked %d DMA allocations", got-before)
	}
}

// refused counts the downcalls TestOutOfRangeTargetsRefused saw refused;
// registered at init, as every cell must be, so the state area holds it.
var refused = registry.RegisterCell("e1000test.refused")

// The test-only body below hands the EEPROM and PHY targets addresses
// outside the device. It is registered at init, as every handler must be:
// the worker's table is the one its init builds, so a handler registered
// later would change the kernel side's digest and every later proc epoch
// would be refused.
func init() {
	registry.Register("e1000test_out_of_range", registry.Handler{
		Down: true,
		Fn: func(c *registry.Ctx) error {
			for _, d := range []struct {
				down registry.Downcall
				arg  uint64
			}{
				{downReadEEPROM, EEPROMWords},
				{downReadEEPROM, 1 << 32},
				{downReadPHYReg, phyMaxReg + 1},
				{downWritePHYReg, (phyMaxReg+1)<<16 | 0x1234},
				{downWritePHYReg, 1 << 40},
			} {
				if _, err := c.Downcall(d.down, d.arg); err != nil {
					c.State.Add(refused, 1)
				}
			}
			return nil
		},
	})
}

// TestOutOfRangeTargetsRefused: the EEPROM and PHY targets check the
// address a decaf body hands them and refuse one outside the device before
// touching a register.
func TestOutOfRangeTargetsRefused(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.load(t)
	reg := func(off uint32) uint64 { return r.dev.PCI.MMIORead(0, off, 4) }
	eerd, mdic, shadow := reg(e1000hw.RegEERD), reg(e1000hw.RegMDIC), r.drv.Adapter.EEPROM
	if err := r.drv.Runtime().Call(r.kern.NewContext("t"), registry.Lookup("e1000test_out_of_range")); err != nil {
		t.Fatal(err)
	}
	if got := r.drv.Runtime().SharedState().Load(refused); got != 5 {
		t.Fatalf("%d of 5 out-of-range downcalls refused", got)
	}
	if reg(e1000hw.RegEERD) != eerd || reg(e1000hw.RegMDIC) != mdic || r.drv.Adapter.EEPROM != shadow {
		t.Fatal("a refused downcall touched the device or the EEPROM shadow")
	}
}

// TestProbeRingSizeOutOfRangeFailsLoad: the kernel checks the ring sizes a
// probe body reports before sizing DMA by them, so a body reporting one
// outside [MinRing, MaxRing] fails the load.
func TestProbeRingSizeOutOfRangeFailsLoad(t *testing.T) {
	orig := *registry.Lookup("e1000_probe")
	t.Cleanup(func() { registry.Register("e1000_probe", orig) })
	for _, ring := range []uint64{MinRing - 1, MaxRing + 1} {
		registry.Register("e1000_probe", registry.Handler{
			Down: true,
			Fn: func(c *registry.Ctx) error {
				if err := orig.Fn(c); err != nil {
					return err
				}
				c.State.Store(cellRxRing, ring)
				return nil
			},
		})
		r := newRig(t, xpc.ModeDecaf)
		_, err := r.kern.LoadModule(r.drv.Module())
		if err == nil || !strings.Contains(err.Error(), "ring sizes") {
			t.Fatalf("ring %d: load error = %v, want the ring-size refusal", ring, err)
		}
		if _, ok := r.net.Device("eth0"); ok || len(r.kern.LoadedModules()) != 0 {
			t.Fatalf("ring %d: failed load left an interface or module behind", ring)
		}
	}
}
