package e1000

import (
	"testing"
	"time"

	"decafdrivers/internal/hw"
	"decafdrivers/internal/kernel"
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

// TestOpenFailsCleanlyOnDMAExhaustion: the decaf driver's nested exception
// handlers (Figure 4) release exactly what was acquired when an allocation
// fails mid-open, so nothing leaks and the failure is a clean error.
func TestOpenFailsCleanlyOnDMAExhaustion(t *testing.T) {
	r := newRig(t, xpc.ModeDecaf)
	r.load(t)
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
	// The IRQ line must not be left claimed by the failed open.
	if err := r.kern.RequestIRQ(9, "probe-check", func(*kernel.Context, int, any) {}, nil); err != nil {
		t.Fatalf("IRQ leaked by failed open: %v", err)
	}
	_ = r.kern.FreeIRQ(9, "probe-check")
}

// TestInjectedDataPathFaultContained: a decaf-side panic injected into the
// TX data path fails only its flush — frames drop with accounting, the
// kernel survives, and traffic resumes on the next flush.
func TestInjectedDataPathFaultContained(t *testing.T) {
	const batchN = 4
	r := newDecafPathRig(t, batchN)
	r.load(t)
	r.up(t)
	r.drv.Runtime().SetFaultInjector(workloadFaultNth("e1000_xmit_frame", 2))

	ctx := r.kern.NewContext("xmit")
	pkt := knet.NewPacket([6]byte{1, 2, 3, 4, 5, 6}, r.drv.Adapter.MAC, 0x0800, 100)
	// First batch: the 2nd call faults mid-flush. Without a supervisor the
	// error surfaces (seed behavior) but must be a contained UserFault.
	var flushErr error
	for i := 0; i < batchN; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil && flushErr == nil {
			flushErr = err
		}
	}
	if !xpc.IsUserFault(flushErr) {
		t.Fatalf("flush error = %v, want contained UserFault", flushErr)
	}
	if got := r.drv.Adapter.Stats.TxPackets; got != 0 {
		t.Fatalf("faulted flush transmitted %d frames", got)
	}
	c := r.drv.Runtime().Counters()
	if c.Faults != 1 || c.FaultsInjected != 1 {
		t.Fatalf("Faults=%d FaultsInjected=%d", c.Faults, c.FaultsInjected)
	}
	// The kernel survives: the next batch transmits normally.
	for i := 0; i < batchN; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
			t.Fatalf("transmit after contained fault: %v", err)
		}
	}
	if got := r.drv.Adapter.Stats.TxPackets; got != batchN {
		t.Fatalf("post-fault batch transmitted %d frames, want %d", got, batchN)
	}
}

// workloadFaultNth is a minimal counting injector (the workload package has
// the full FaultPlan; driver tests keep their own to avoid the dependency).
func workloadFaultNth(call string, nth int) func(string) bool {
	n := 0
	return func(c string) bool {
		if c != call {
			return false
		}
		n++
		return n == nth
	}
}

// TestRecoveryRestoresConfigAfterDataPathFault is the driver-level recovery
// fixture: an injected TX fault under supervision never surfaces to the
// kernel caller, the supervisor restarts the decaf side, and the replayed
// journal rebuilds a configuration identical to the pre-fault one.
func TestRecoveryRestoresConfigAfterDataPathFault(t *testing.T) {
	const batchN = 4
	r := newDecafPathRig(t, batchN)
	j := recovery.NewStateJournal()
	r.drv.EnableRecovery(j)
	r.load(t)
	r.up(t)
	sup := recovery.NewSupervisor(r.kern, r.drv, j, recovery.Config{})
	sup.Attach()
	if j.Len() != 2 {
		t.Fatalf("journal has %d entries after boot, want probe+ifup", j.Len())
	}

	pre := *r.drv.Adapter // config snapshot (value copy)
	r.drv.Runtime().SetFaultInjector(workloadFaultNth("e1000_xmit_frame", 2))

	ctx := r.kern.NewContext("xmit")
	pkt := knet.NewPacket([6]byte{1, 2, 3, 4, 5, 6}, r.drv.Adapter.MAC, 0x0800, 100)
	for i := 0; i < batchN; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
			t.Fatalf("fault surfaced to kernel caller: %v", err)
		}
	}
	// The supervisor's deferred work performs the whole restart (immediate
	// policy: teardown, decaf reset, journal replay, resume in one drain).
	r.kern.DefaultWorkqueue().Drain()

	st := sup.Stats()
	if st.Recoveries != 1 || st.State != recovery.StateMonitoring {
		t.Fatalf("supervisor stats = %+v", st)
	}
	if st.Replayed != 2 {
		t.Fatalf("replayed %d journal entries, want 2", st.Replayed)
	}
	a := r.drv.Adapter
	if a.MAC != pre.MAC || a.TxRingSize != pre.TxRingSize || a.RxRingSize != pre.RxRingSize ||
		a.FlowControl != pre.FlowControl || a.EEPROM != pre.EEPROM || a.PhyID != pre.PhyID {
		t.Fatalf("post-recovery kernel config differs from pre-fault:\npre  %+v\npost %+v", pre, *a)
	}
	// The decaf side was reset and its replayed probe reported the same
	// settings through the cells the kernel adopted them from.
	cells := r.drv.Runtime().SharedState()
	var mac [6]byte
	for i := range mac {
		mac[i] = byte(cells.Load(cellMAC) >> (8 * i))
	}
	if mac != pre.MAC || cells.Load(cellTxRing) != uint64(pre.TxRingSize) || cells.Load(cellPhyID) != uint64(pre.PhyID) {
		t.Fatal("post-recovery decaf cells differ from the pre-fault config")
	}
	// The restarted driver carries traffic again.
	for i := 0; i < batchN; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
			t.Fatalf("transmit after recovery: %v", err)
		}
	}
	if r.drv.Adapter.Stats.TxPackets == 0 {
		t.Fatal("no frames transmitted after recovery")
	}
}

// TestControlOpsRefusedDuringOutage: ifup/ifdown during a recovery outage
// refuse instead of crossing into the suspect, mid-rebuild decaf driver;
// after resume they work again.
func TestControlOpsRefusedDuringOutage(t *testing.T) {
	const batchN = 4
	r := newDecafPathRig(t, batchN)
	j := recovery.NewStateJournal()
	r.drv.EnableRecovery(j)
	r.load(t)
	r.up(t)
	// Backoff policy: the outage stays open until the timer fires, giving
	// an observable window.
	sup := recovery.NewSupervisor(r.kern, r.drv, j,
		recovery.Config{Policy: recovery.Backoff{Base: 5 * time.Millisecond}})
	sup.Attach()
	r.drv.Runtime().SetFaultInjector(workloadFaultNth("e1000_xmit_frame", 1))

	ctx := r.kern.NewContext("t")
	pkt := knet.NewPacket([6]byte{1, 2, 3, 4, 5, 6}, r.drv.Adapter.MAC, 0x0800, 100)
	for i := 0; i < batchN; i++ {
		if err := r.drv.NetDevice().Transmit(ctx, pkt); err != nil {
			t.Fatal(err)
		}
	}
	r.kern.DefaultWorkqueue().Drain()
	if sup.State() != recovery.StateWaitingRestart {
		t.Fatalf("state = %v, want an open outage window", sup.State())
	}
	if err := r.drv.NetDevice().Down(ctx); err == nil {
		t.Fatal("ifdown succeeded during the outage")
	}
	if !r.drv.NetDevice().IsUp() {
		t.Fatal("refused ifdown still marked the interface down")
	}
	// Resume, then control ops work again.
	r.clock.Advance(10 * time.Millisecond)
	r.kern.DefaultWorkqueue().Drain()
	if st := sup.Stats(); st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := r.drv.NetDevice().Down(ctx); err != nil {
		t.Fatalf("ifdown after resume: %v", err)
	}
	if err := r.drv.NetDevice().Up(ctx); err != nil {
		t.Fatalf("ifup after resume: %v", err)
	}
}
