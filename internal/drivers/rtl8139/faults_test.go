package rtl8139

import (
	"testing"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/xpc"
)

// exhaustDMA drains the arena down to sub-page crumbs so any driver-sized
// allocation must fail.
func exhaustDMA(dma *hw.DMAMemory) {
	for _, chunk := range []int{1 << 20, 4096, 64} {
		for {
			if _, err := dma.Alloc(chunk, 1); err != nil {
				break
			}
		}
	}
}

// TestOpenFailsCleanlyOnDMAExhaustion: a failed rtl8139_open releases every
// partially acquired buffer (the exception handler frees on the unwind
// path) and leaves the interface down but reusable.
func TestOpenFailsCleanlyOnDMAExhaustion(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	if _, err := r.kern.LoadModule(r.drv.Module()); err != nil {
		t.Fatal(err)
	}
	dma := r.kern.Bus().DMA()
	exhaustDMA(dma)
	inUse := dma.InUse()

	ctx := r.kern.NewContext("ifup")
	if err := r.drv.NetDevice().Up(ctx); err == nil {
		t.Fatal("interface came up with an exhausted DMA arena")
	}
	if got := dma.InUse(); got != inUse {
		t.Fatalf("failed open leaked %d allocations", got-inUse)
	}
	if r.drv.NetDevice().IsUp() {
		t.Fatal("netdev marked up after failed open")
	}
}

// TestInjectedRxFaultContained: a decaf-side panic injected into the RX
// inspection path drops only its own flush — the drop is accounted, the
// kernel survives, and later frames deliver normally.
func TestInjectedRxFaultContained(t *testing.T) {
	const batchN = 4
	r := newDecafPathRig(t, batchN)
	r.loadAndUp(t)
	nth := 0
	r.drv.Runtime().SetFaultInjector(func(call string) bool {
		if call != "rtl8139_rx_frame" {
			return false
		}
		nth++
		return nth == 2
	})

	received := 0
	r.drv.NetDevice().SetRxSink(func(p *knet.Packet) { received++ })
	frame := knet.NewPacket(r.drv.Adapter.MAC, [6]byte{9, 8, 7, 6, 5, 4}, 0x0800, 200)
	for i := 0; i < batchN; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("inject %d failed", i)
		}
	}
	r.kern.DefaultWorkqueue().Drain()
	if received != 0 {
		t.Fatalf("faulted flush delivered %d frames", received)
	}
	if got := r.drv.Adapter.Stats.RxDropped; got != batchN {
		t.Fatalf("RxDropped = %d, want %d (whole faulted flush)", got, batchN)
	}
	c := r.drv.Runtime().Counters()
	if c.Faults != 1 || c.FaultsInjected != 1 {
		t.Fatalf("Faults=%d FaultsInjected=%d", c.Faults, c.FaultsInjected)
	}
	// The kernel survives: the next batch delivers.
	for i := 0; i < batchN; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("post-fault inject %d failed", i)
		}
	}
	r.kern.DefaultWorkqueue().Drain()
	if received != batchN {
		t.Fatalf("received %d frames after contained fault, want %d", received, batchN)
	}
}

// TestRecoveryRestoresConfigAfterRxFault is the driver-level recovery
// fixture: an injected RX fault under supervision restarts the decaf side
// and the replayed journal (probe + ifup) rebuilds an identical
// configuration — EEPROM shadow, MAC, running chip.
func TestRecoveryRestoresConfigAfterRxFault(t *testing.T) {
	const batchN = 4
	r := newDecafPathRig(t, batchN)
	j := recovery.NewStateJournal()
	r.drv.EnableRecovery(j)
	r.loadAndUp(t)
	sup := recovery.NewSupervisor(r.kern, r.drv, j, recovery.Config{})
	sup.Attach()
	if j.Len() != 2 {
		t.Fatalf("journal has %d entries after boot, want probe+ifup", j.Len())
	}

	pre := *r.drv.Adapter
	nth := 0
	r.drv.Runtime().SetFaultInjector(func(call string) bool {
		if call != "rtl8139_rx_frame" {
			return false
		}
		nth++
		return nth == 1
	})

	received := 0
	r.drv.NetDevice().SetRxSink(func(p *knet.Packet) { received++ })
	frame := knet.NewPacket(r.drv.Adapter.MAC, [6]byte{9, 8, 7, 6, 5, 4}, 0x0800, 200)
	for i := 0; i < batchN; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("inject %d failed", i)
		}
	}
	// Drain runs the faulted flush AND the supervisor's whole restart
	// (immediate policy: everything completes inside one drain).
	r.kern.DefaultWorkqueue().Drain()

	st := sup.Stats()
	if st.Recoveries != 1 || st.State != recovery.StateMonitoring {
		t.Fatalf("supervisor stats = %+v", st)
	}
	a := r.drv.Adapter
	if a.MAC != pre.MAC || a.EEPROM != pre.EEPROM {
		t.Fatalf("post-recovery kernel config differs:\npre  %+v\npost %+v", pre, *a)
	}
	if mac, eeprom := r.drv.probeCells(); mac != pre.MAC || eeprom != pre.EEPROM {
		t.Fatal("post-recovery decaf config differs from pre-fault")
	}
	// The restarted driver receives again (chip re-started, IRQ re-wired).
	for i := 0; i < batchN; i++ {
		if !r.dev.InjectRx(frame.Data) {
			t.Fatalf("post-recovery inject %d failed", i)
		}
	}
	r.kern.DefaultWorkqueue().Drain()
	if received != batchN {
		t.Fatalf("received %d frames after recovery, want %d", received, batchN)
	}
}
